package trace

import (
	"path/filepath"
	"reflect"
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

func newRig(t *testing.T, capacity int) (*machine.Machine, *mesif.Engine, *Recorder) {
	t.Helper()
	m := machine.MustNew(machine.TestSystem(machine.SourceSnoop))
	e := mesif.New(m)
	tr := Attach(e, Options{Capacity: capacity})
	t.Cleanup(tr.Detach)
	return m, e, tr
}

// TestRecorderOrder: events come out oldest-first with kinds matching what
// the run actually did, and the digest counts every transaction.
func TestRecorderOrder(t *testing.T) {
	m, e, tr := newRig(t, 0)
	r := m.MustAlloc(0, 2*addr.LineSize)
	lines := r.Lines()
	e.Read(0, lines[0])
	e.Write(1, lines[1])
	e.Flush(0, lines[0])
	m.Reset()

	evs := tr.Events()
	wantKinds := []EventKind{EvAlloc, EvOp, EvOp, EvOp, EvReset}
	if len(evs) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %v", len(evs), len(wantKinds), evs)
	}
	for i, k := range wantKinds {
		if evs[i].Kind != k {
			t.Errorf("event %d: kind %v, want %v", i, evs[i].Kind, k)
		}
	}
	d := tr.Digest()
	if d.Ops != 3 || d.Reads != 1 || d.Writes != 1 || d.Flushes != 1 {
		t.Errorf("digest miscounts: %+v", d)
	}
	if d.LatencyPs <= 0 {
		t.Errorf("digest latency %d ps, want > 0", d.LatencyPs)
	}
}

// TestRingOverflow: a tiny ring keeps only the newest events, counts the
// drops, and marks the resulting bundle truncated.
func TestRingOverflow(t *testing.T) {
	m, e, tr := newRig(t, 4)
	l := m.MustAlloc(0, addr.LineSize).Base.Line()
	for i := 0; i < 10; i++ {
		e.Read(0, l)
	}
	if got := tr.Total(); got != 11 { // 1 alloc + 10 ops
		t.Errorf("Total() = %d, want 11", got)
	}
	if got := tr.Overflowed(); got != 7 {
		t.Errorf("Overflowed() = %d, want 7", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != EvOp {
			t.Errorf("event %d: kind %v, want op (alloc should have been dropped)", i, ev.Kind)
		}
	}
	b := tr.Bundle(nil)
	if !b.Truncated() {
		t.Errorf("bundle of an overflowed ring not marked truncated")
	}
	// The digest still covers the whole run, not just the surviving window.
	if d := tr.Digest(); d.Ops != 10 {
		t.Errorf("digest ops %d, want 10", d.Ops)
	}
	if err := tr.SetBaseline(); err == nil {
		t.Errorf("SetBaseline on an overflowed ring succeeded")
	}
}

// TestBaseline: SetBaseline pins the preamble, ResetToBaseline discards
// everything after it and restarts the digest.
func TestBaseline(t *testing.T) {
	m, e, tr := newRig(t, 0)
	l := m.MustAlloc(0, addr.LineSize).Base.Line()
	if err := tr.SetBaseline(); err != nil {
		t.Fatalf("SetBaseline: %v", err)
	}
	e.Read(0, l)
	e.Write(0, l)
	if n := len(tr.Events()); n != 3 {
		t.Fatalf("got %d events, want 3", n)
	}
	tr.ResetToBaseline()
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != EvAlloc {
		t.Fatalf("after reset: %v, want just the alloc", evs)
	}
	if d := tr.Digest(); d.Ops != 0 {
		t.Errorf("digest not restarted: %+v", d)
	}
	e.Read(0, l)
	if n := len(tr.Events()); n != 2 {
		t.Errorf("recording after reset: %d events, want 2", n)
	}
}

// TestHookChaining: Attach preserves previously installed hooks, and Detach
// (LIFO) restores them.
func TestHookChaining(t *testing.T) {
	m := machine.MustNew(machine.TestSystem(machine.SourceSnoop))
	e := mesif.New(m)
	var accesses, allocs, resets int
	e.AfterAccess = func(mesif.Op, topology.CoreID, addr.LineAddr, mesif.Access) { accesses++ }
	m.OnAlloc = func(topology.NodeID, int64, addr.Region) { allocs++ }
	m.OnReset = func() { resets++ }

	tr := Attach(e, Options{})
	l := m.MustAlloc(0, addr.LineSize).Base.Line()
	e.Read(0, l)
	m.Reset()
	if accesses != 1 || allocs != 1 || resets != 1 {
		t.Errorf("chained hooks fired (%d, %d, %d), want (1, 1, 1)", accesses, allocs, resets)
	}
	if n := len(tr.Events()); n != 3 {
		t.Errorf("recorder saw %d events, want 3", n)
	}

	tr.Detach()
	tr.Detach() // idempotent
	e.Read(0, l)
	m.Reset()
	if accesses != 2 || resets != 2 {
		t.Errorf("original hooks not restored: accesses=%d resets=%d", accesses, resets)
	}
	if n := len(tr.Events()); n != 3 {
		t.Errorf("detached recorder still recording: %d events", n)
	}
}

// TestBundleRoundTrip: WriteFile/ReadFile preserve every field.
func TestBundleRoundTrip(t *testing.T) {
	m, e, tr := newRig(t, 0)
	l := m.MustAlloc(0, addr.LineSize).Base.Line()
	e.Read(0, l)
	e.Write(1, l)
	f := &Finding{Kind: 2, KindName: "directory", Class: 1, ClassName: "violation",
		Line: l, Detail: "synthetic", Op: int(mesif.OpRead), Core: 0}
	b := tr.Bundle(f)

	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := WriteFile(path, b); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("round trip changed the bundle:\n wrote: %+v\n read:  %+v", b, got)
	}
	if got.Digest != b.Digest {
		t.Errorf("digest changed: %+v vs %+v", b.Digest, got.Digest)
	}
}

// TestVersionRejected: a bundle from a different format version fails
// validation instead of replaying garbage.
func TestVersionRejected(t *testing.T) {
	_, _, tr := newRig(t, 0)
	b := tr.Bundle(nil)
	b.Version = Version + 1
	path := filepath.Join(t.TempDir(), "future.json")
	if err := WriteFile(path, b); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Errorf("version %d bundle accepted by a version %d reader", b.Version, Version)
	}
}

// TestApplyRejectsNonCorruptions: Apply is for corruption events only.
func TestApplyRejectsNonCorruptions(t *testing.T) {
	m := machine.MustNew(machine.TestSystem(machine.SourceSnoop))
	for _, k := range []EventKind{EvOp, EvAlloc, EvReset} {
		if err := Apply(m, Event{Kind: k}); err == nil {
			t.Errorf("Apply accepted kind %v", k)
		}
	}
}

// TestApplyRejectsUnknownL3State: a recorded L3 state outside the cache
// states fails instead of wrapping into the byte-wide cache.State, and
// leaves the line as it was.
func TestApplyRejectsUnknownL3State(t *testing.T) {
	m, e, _ := newRig(t, 0)
	l := m.MustAlloc(0, addr.LineSize).Base.Line()
	e.Read(0, l)
	sl := m.CAForNode(0, l)
	want := m.Slice(sl).StateOf(l)
	if !want.Valid() {
		t.Fatalf("node 0's L3 does not hold line %#x after a read", uint64(l))
	}
	for _, st := range []int{-1, int(cache.Owned) + 1, 256} {
		if err := Apply(m, Event{Kind: EvCorruptL3, Line: l, State: st}); err == nil {
			t.Errorf("Apply accepted L3 state %d", st)
		}
		if got := m.Slice(sl).StateOf(l); got != want {
			t.Errorf("after L3 state %d: line is %v, want %v", st, got, want)
		}
	}
}

// TestFindingMatches: identity is (kind, class, line); detail and op are
// diagnostic only.
func TestFindingMatches(t *testing.T) {
	a := Finding{Kind: 1, Class: 2, Line: 0x40, Detail: "x", Op: 0}
	b := Finding{Kind: 1, Class: 2, Line: 0x40, Detail: "y", Op: 1, Core: 9}
	if !a.Matches(b) {
		t.Errorf("detail/op differences broke the match")
	}
	for _, g := range []Finding{
		{Kind: 0, Class: 2, Line: 0x40},
		{Kind: 1, Class: 0, Line: 0x40},
		{Kind: 1, Class: 2, Line: 0x80},
	} {
		if a.Matches(g) {
			t.Errorf("%+v matched %+v", a, g)
		}
	}
}
