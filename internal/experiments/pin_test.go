package experiments

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/coherence"
	"haswellep/internal/fault"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/trace"
	"haswellep/internal/units"
)

// The MESIF pin test freezes the pre-refactor engine's observable behavior
// into a golden file and holds every future engine against it: the paper's
// Table IV/V latency matrices, the flight-recorder digest of a faulted
// chaos stream, and the digest of the 24 MiB capacity-pressure stream —
// plus, for the two streams, an order-sensitive hash of every
// transaction's dirty set, so a refactor cannot shuffle state mutations
// between transactions without detection. The golden was generated from
// the engine as it stood before the coherence-protocol extraction; the
// nine-system entries (every snoop mode × protocol) were added from the
// engine as it stood before its protocol legs were consolidated
// (regenerate only deliberately, with HSW_WRITE_GOLDEN=1).
//
// Latencies inside the digests are integer picoseconds and the hashes are
// serialized as hex strings, so equality here is exact, not approximate.

const pinGoldenPath = "testdata/mesif_pin.json"

// pinGolden is the frozen behavioral fingerprint.
type pinGolden struct {
	Table4         [4][4]float64 `json:"table4_ns"`
	Table5         [4][4]float64 `json:"table5_ns"`
	ChaosDigest    trace.Digest  `json:"chaos_digest"`
	ChaosDirty     string        `json:"chaos_dirty_fnv64a"`
	CapacityDigest trace.Digest  `json:"capacity_digest"`
	CapacityDirty  string        `json:"capacity_dirty_fnv64a"`
	// Systems pins the faulted mixed stream under every snoop mode ×
	// protocol, with cores on both sockets.
	Systems []pinSystem `json:"systems"`
}

// pinSystem is one system's fingerprint of the faulted mixed stream. The
// digest alone cannot tell MOESI from MESI in the snoop modes, where they
// differ only in DRAM write-backs, so the snoop counters and the machine's
// traffic counters are pinned beside it.
type pinSystem struct {
	System     string               `json:"system"`
	Digest     trace.Digest         `json:"digest"`
	Dirty      string               `json:"dirty_fnv64a"`
	SnoopsSent uint64               `json:"snoops_sent"`
	SnoopsQPI  uint64               `json:"snoops_qpi"`
	Traffic    machine.TrafficStats `json:"traffic"`
}

// dirtyHasher folds every transaction's (op, core, line, dirty set) into
// one FNV-1a stream, in transaction order. Byte-identical dirty sets —
// same lines, same order, same transaction boundaries — are the contract
// the incremental invariant checker depends on.
type dirtyHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newDirtyHasher() *dirtyHasher {
	return &dirtyHasher{h: fnv.New64a()}
}

func (d *dirtyHasher) word(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

// attach wires the hasher onto the engine's AfterTransaction hook (test
// files may assign hooks directly) and enables dirty tracking.
func (d *dirtyHasher) attach(e *mesif.Engine) {
	e.SetDirtyTracking(true)
	prev := e.AfterTransaction
	e.AfterTransaction = func(op mesif.Op, core topology.CoreID, l addr.LineAddr) {
		d.word(uint64(op))
		d.word(uint64(core))
		d.word(uint64(l))
		dirty := e.DirtyLines()
		d.word(uint64(len(dirty)))
		for _, dl := range dirty {
			d.word(uint64(dl))
		}
		if prev != nil {
			prev(op, core, l)
		}
	}
}

func (d *dirtyHasher) hex() string {
	return fmt.Sprintf("%016x", d.h.Sum64())
}

// pinChaosStream runs the fixed faulted multi-node stream on the COD MESIF
// system and returns the flight-recorder digest plus the dirty-set hash.
func pinChaosStream(t *testing.T) (trace.Digest, string) {
	t.Helper()
	ps := pinStream(t, machine.TestSystem(machine.COD), []topology.CoreID{0, 1, 6}, 600)
	return ps.Digest, ps.Dirty
}

// pinSystems runs the faulted mixed stream on all nine systems (3 snoop
// modes × 3 protocols) with one core per socket half: 0 and 6 share a
// socket (and a node outside COD), 12 sits on the other socket.
func pinSystems(t *testing.T) []pinSystem {
	t.Helper()
	var out []pinSystem
	for _, mode := range []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop, machine.COD} {
		for _, id := range coherence.IDs() {
			cfg := machine.TestSystem(mode)
			cfg.Protocol = id
			ps := pinStream(t, cfg, []topology.CoreID{0, 6, 12}, 2000)
			ps.System = mode.Token() + "/" + string(id)
			out = append(out, ps)
		}
	}
	return out
}

// pinStream drives the fault-injected mixed stream of reads, writes and
// flushes across the given cores on a fresh machine built from cfg.
func pinStream(t *testing.T, cfg machine.Config, cores []topology.CoreID, iters int) pinSystem {
	t.Helper()
	m := machine.MustNew(cfg)
	e := mesif.New(m)
	inj, err := fault.NewInjector(fault.Uniform(0xC0DE, 0.05))
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	e.Faults = inj
	rec := trace.Attach(e, trace.Options{})
	defer rec.Detach()
	dh := newDirtyHasher()
	dh.attach(e)

	// One small region per node; the stream mixes local and remote reads,
	// writes, and flushes across the cores so forwards, RFOs, dirty
	// forwards, and directory traffic all occur.
	nodes := m.Topo.Nodes()
	var lines []addr.LineAddr
	for n := 0; n < nodes; n++ {
		r := m.MustAlloc(topology.NodeID(n), 4*units.KiB)
		lines = append(lines, r.Lines()...)
	}
	for i := 0; i < iters; i++ {
		l := lines[(i*7)%len(lines)]
		c := cores[i%len(cores)]
		switch {
		case i%5 == 3:
			e.Write(c, l)
		case i%97 == 0:
			e.Flush(c, l)
		default:
			e.Read(c, l)
		}
		if i%6 == 0 {
			e.Read(cores[(i+1)%len(cores)], lines[(i*13+5)%len(lines)])
		}
	}
	st := e.Stats()
	return pinSystem{
		Digest:     rec.Digest(),
		Dirty:      dh.hex(),
		SnoopsSent: st.SnoopsSent,
		SnoopsQPI:  st.SnoopsQPI,
		Traffic:    m.Traffic(),
	}
}

// pinCapacityStream replays the 24 MiB capacity-pressure stream from the
// invariant suite (same shape, same seed) under a flight recorder.
func pinCapacityStream(t *testing.T) (trace.Digest, string) {
	t.Helper()
	cfg := machine.TestSystem(machine.COD)
	cfg.Sockets = 1
	m := machine.MustNew(cfg)
	e := mesif.New(m)
	rec := trace.Attach(e, trace.Options{})
	defer rec.Detach()
	dh := newDirtyHasher()
	dh.attach(e)

	const footprint = 24 * units.MiB
	region := m.MustAlloc(0, footprint)
	lines := region.Lines()
	cores := []topology.CoreID{0, 1, 6}
	rng := rand.New(rand.NewSource(0xCAFE))
	const window = 64
	for i, l := range lines {
		c := cores[i%len(cores)]
		if i%4 == 0 {
			e.Write(c, l)
		} else {
			e.Read(c, l)
		}
		if i >= window && i%8 == 0 {
			back := lines[i-1-rng.Intn(window)]
			e.Read(cores[(i+1)%len(cores)], back)
		}
	}
	return rec.Digest(), dh.hex()
}

// TestMESIFPin is the differential pin: the engine, driven through the
// protocol interface, must remain byte-identical to the pre-refactor MESIF
// engine on the paper tables and both standard streams.
func TestMESIFPin(t *testing.T) {
	got := pinGolden{}

	t4, err := Table4In(NewEnv(machine.COD))
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	got.Table4 = t4.Values
	t5, err := Table5In(NewEnv(machine.COD))
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	got.Table5 = t5.Values

	got.ChaosDigest, got.ChaosDirty = pinChaosStream(t)
	got.Systems = pinSystems(t)

	short := testing.Short()
	if !short {
		got.CapacityDigest, got.CapacityDirty = pinCapacityStream(t)
	}

	if os.Getenv("HSW_WRITE_GOLDEN") == "1" {
		if short {
			t.Fatal("refusing to write a golden without the capacity stream; rerun without -short")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(pinGoldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(pinGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("wrote %s", pinGoldenPath)
		return
	}

	data, err := os.ReadFile(pinGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with HSW_WRITE_GOLDEN=1): %v", err)
	}
	want := pinGolden{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	if got.Table4 != want.Table4 {
		t.Errorf("Table IV diverged from the pre-refactor engine:\n got %v\nwant %v", got.Table4, want.Table4)
	}
	if got.Table5 != want.Table5 {
		t.Errorf("Table V diverged from the pre-refactor engine:\n got %v\nwant %v", got.Table5, want.Table5)
	}
	if got.ChaosDigest != want.ChaosDigest {
		t.Errorf("chaos stream digest diverged:\n got %+v\nwant %+v", got.ChaosDigest, want.ChaosDigest)
	}
	if got.ChaosDirty != want.ChaosDirty {
		t.Errorf("chaos stream dirty sets diverged: got %s want %s", got.ChaosDirty, want.ChaosDirty)
	}
	if len(got.Systems) != len(want.Systems) {
		t.Fatalf("pinned %d systems, golden has %d", len(got.Systems), len(want.Systems))
	}
	for i, g := range got.Systems {
		if w := want.Systems[i]; g != w {
			t.Errorf("system %s diverged:\n got %+v\nwant %+v", g.System, g, w)
		}
	}
	if !short {
		if got.CapacityDigest != want.CapacityDigest {
			t.Errorf("capacity stream digest diverged:\n got %+v\nwant %+v", got.CapacityDigest, want.CapacityDigest)
		}
		if got.CapacityDirty != want.CapacityDirty {
			t.Errorf("capacity stream dirty sets diverged: got %s want %s", got.CapacityDirty, want.CapacityDirty)
		}
	}
}
