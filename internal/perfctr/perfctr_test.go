package perfctr

import (
	"strings"
	"testing"

	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/placement"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

func setup(t *testing.T, mode machine.SnoopMode) (*mesif.Engine, *Monitor, *placement.Placer) {
	t.Helper()
	e := mesif.New(machine.MustNew(machine.TestSystem(mode)))
	return e, New(e), placement.New(e)
}

func TestL1HitCounting(t *testing.T) {
	e, m, p := setup(t, machine.SourceSnoop)
	r, _ := e.M.AllocOnNode(0, 8*units.KiB)
	p.Exclusive(0, r)
	m.Reset()
	for _, l := range r.Lines() {
		e.Read(0, l)
	}
	c := m.ReadCounters()
	if c[LoadsRetired] != 128 || c[L1Hit] != 128 {
		t.Errorf("loads=%d l1=%d, want 128/128", c[LoadsRetired], c[L1Hit])
	}
	if c[RemoteDRAM] != 0 || c[LocalDRAM] != 0 {
		t.Error("L1-resident reads must not touch DRAM")
	}
}

func TestXSNPEvents(t *testing.T) {
	e, m, p := setup(t, machine.SourceSnoop)
	// Modified in core 1's L1 -> XSNP_HITM.
	r1, _ := e.M.AllocOnNode(0, 4*units.KiB)
	p.Modified(1, r1)
	m.Reset()
	for _, l := range r1.Lines() {
		e.Read(0, l)
	}
	c := m.ReadCounters()
	if c[XSNPHitM] != uint64(len(r1.Lines())) {
		t.Errorf("XSNP_HITM = %d, want %d", c[XSNPHitM], len(r1.Lines()))
	}

	// Exclusive with stale bit -> XSNP_HIT.
	e.M.Reset()
	r2, _ := e.M.AllocOnNode(0, 2*units.MiB)
	p.Exclusive(1, r2)
	m.Reset()
	snooped := 0
	for i, l := range r2.Lines() {
		if i >= 1024 {
			break
		}
		acc := e.Read(0, l)
		if acc.Source == mesif.SrcL3CoreSnoop {
			snooped++
		}
	}
	c = m.ReadCounters()
	if c[XSNPHit] != uint64(snooped) || snooped == 0 {
		t.Errorf("XSNP_HIT = %d, observed %d", c[XSNPHit], snooped)
	}
}

// TestRemoteEvents reproduces the paper's footnote-6/8 usage: the counters
// distinguish remote-DRAM from remote-forward services.
func TestRemoteEvents(t *testing.T) {
	e, m, p := setup(t, machine.SourceSnoop)
	// Remote forward: modified in the other socket's L3.
	r, _ := e.M.AllocOnNode(1, 256*units.KiB)
	c12 := topology.CoreID(12)
	p.Modified(c12, r)
	p.EvictPrivate(c12, r)
	m.Reset()
	for _, l := range r.Lines() {
		e.Read(0, l)
	}
	c := m.ReadCounters()
	if c[RemoteFwd] != uint64(len(r.Lines())) {
		t.Errorf("REMOTE_FWD = %d, want %d", c[RemoteFwd], len(r.Lines()))
	}

	// Remote DRAM: flushed remote buffer.
	e.M.Reset()
	r2, _ := e.M.AllocOnNode(1, 256*units.KiB)
	p.Modified(c12, r2)
	p.FlushAll(c12, r2)
	m.Reset()
	for _, l := range r2.Lines() {
		e.Read(0, l)
	}
	c = m.ReadCounters()
	if c[RemoteDRAM] != uint64(len(r2.Lines())) {
		t.Errorf("REMOTE_DRAM = %d, want %d", c[RemoteDRAM], len(r2.Lines()))
	}
	if c[LocalDRAM] != 0 {
		t.Errorf("LOCAL_DRAM = %d, want 0", c[LocalDRAM])
	}
}

func TestDirectoryEvents(t *testing.T) {
	e, m, p := setup(t, machine.COD)
	r, _ := e.M.AllocOnNode(1, 64*units.KiB)
	p.Shared(r, 6, 12)
	m.Reset()
	for _, l := range r.Lines() {
		e.Read(0, l)
	}
	c := m.ReadCounters()
	if c[DirCacheHits] == 0 {
		t.Error("shared small set must hit the directory cache")
	}
	if c[SnoopsSent] == 0 {
		t.Error("COD misses must snoop the home node")
	}
}

func TestBroadcastEvent(t *testing.T) {
	e, m, p := setup(t, machine.COD)
	r, _ := e.M.AllocOnNode(1, 64*units.KiB)
	p.Shared(r, 6, 12)
	e.EvictCached(r)
	e.EvictDirectoryCache(r)
	m.Reset()
	for _, l := range r.Lines() {
		e.Read(0, l)
	}
	c := m.ReadCounters()
	if c[DirBroadcasts] != uint64(len(r.Lines())) {
		t.Errorf("broadcasts = %d, want %d", c[DirBroadcasts], len(r.Lines()))
	}
}

func TestResetAndString(t *testing.T) {
	e, m, p := setup(t, machine.SourceSnoop)
	r, _ := e.M.AllocOnNode(0, 4*units.KiB)
	p.Exclusive(0, r)
	for _, l := range r.Lines() {
		e.Read(0, l)
	}
	m.Reset()
	c := m.ReadCounters()
	for ev, v := range c {
		if v != 0 {
			t.Errorf("%s = %d after reset", ev, v)
		}
	}
	p.Modified(0, r)
	c = m.ReadCounters()
	out := c.String()
	if !strings.Contains(out, string(StoresRetired)) {
		t.Errorf("String misses stores: %q", out)
	}
	if c.Rate(StoresRetired, LoadsRetired) != 0 {
		// No loads since reset: rate guards the zero denominator.
		t.Error("Rate must guard zero denominators")
	}
}

func TestAllEventsComplete(t *testing.T) {
	evs := AllEvents()
	if len(evs) != 14 {
		t.Fatalf("event list = %d", len(evs))
	}
	seen := map[Event]bool{}
	for _, ev := range evs {
		if seen[ev] {
			t.Fatalf("duplicate event %s", ev)
		}
		seen[ev] = true
	}
	// Every listed event appears in a reading.
	e, m, p := setup(t, machine.COD)
	r, _ := e.M.AllocOnNode(0, 4*units.KiB)
	p.Exclusive(0, r)
	c := m.ReadCounters()
	for _, ev := range evs {
		if _, ok := c[ev]; !ok {
			t.Errorf("event %s missing from reading", ev)
		}
	}
	if m.Engine() != e {
		t.Error("Engine accessor wrong")
	}
}
