package machine

import (
	"strings"
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

func TestSnoopModeStrings(t *testing.T) {
	if !strings.Contains(SourceSnoop.String(), "source") ||
		!strings.Contains(HomeSnoop.String(), "home") ||
		!strings.Contains(COD.String(), "Cluster") {
		t.Error("snoop mode names wrong")
	}
	if SnoopMode(7).String() != "SnoopMode(7)" {
		t.Error("unknown mode string")
	}
}

// TestSnoopModeTokens: ParseSnoopMode inverts Token for every mode, and an
// unknown name is refused with the wire-level diagnosis.
func TestSnoopModeTokens(t *testing.T) {
	for _, m := range []SnoopMode{SourceSnoop, HomeSnoop, COD} {
		got, err := ParseSnoopMode(m.Token())
		if err != nil || got != m {
			t.Errorf("ParseSnoopMode(%q) = %v, %v; want %v", m.Token(), got, err, m)
		}
	}
	if SourceSnoop.Token() != "source" || HomeSnoop.Token() != "home" || COD.Token() != "cod" {
		t.Error("mode tokens wrong")
	}
	if SnoopMode(7).Token() != "mode7" {
		t.Error("unknown mode token")
	}
	_, err := ParseSnoopMode("nope")
	if err == nil || err.Error() != `unknown snoop mode "nope" (choose source, home, or cod)` {
		t.Errorf("ParseSnoopMode(nope) error = %v", err)
	}
}

func TestSnoopModeProperties(t *testing.T) {
	if SourceSnoop.UsesDirectory() || HomeSnoop.UsesDirectory() || !COD.UsesDirectory() {
		t.Error("directory only in COD mode")
	}
	if SourceSnoop.HomeSnooped() || !HomeSnoop.HomeSnooped() || !COD.HomeSnooped() {
		t.Error("HomeSnooped wrong")
	}
}

func TestTestSystemConfig(t *testing.T) {
	cfg := TestSystem(SourceSnoop)
	if cfg.Sockets != 2 || cfg.Die != topology.Die12 {
		t.Error("test system must be 2x 12-core")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := TestSystem(SourceSnoop)
	bad.Sockets = 0
	if bad.Validate() == nil {
		t.Error("zero sockets accepted")
	}
	bad = TestSystem(COD)
	bad.Die = topology.Die8
	if bad.Validate() == nil {
		t.Error("COD on 8-core die accepted")
	}
	bad = TestSystem(SourceSnoop)
	bad.DRAM.Channels = 0
	if bad.Validate() == nil {
		t.Error("zero DRAM channels accepted")
	}
}

func TestNewErrors(t *testing.T) {
	cfg := TestSystem(SourceSnoop)
	cfg.Sockets = -1
	if _, err := New(cfg); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on invalid config")
		}
	}()
	cfg := TestSystem(SourceSnoop)
	cfg.Sockets = 0
	MustNew(cfg)
}

func TestMachineAssembly(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	if len(m.Cores) != 24 || len(m.L3) != 24 || len(m.HAs) != 4 {
		t.Fatalf("assembly sizes: %d cores, %d slices, %d HAs", len(m.Cores), len(m.L3), len(m.HAs))
	}
	for _, ha := range m.HAs {
		if ha.Dir != nil || ha.HitME != nil {
			t.Error("directory structures must be absent outside COD")
		}
	}
	cod := MustNew(TestSystem(COD))
	for _, ha := range cod.HAs {
		if ha.Dir == nil || ha.HitME == nil {
			t.Error("COD home agents need directory structures")
		}
	}
}

func TestAllocOnNode(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	r1, err := m.AllocOnNode(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.AllocOnNode(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r1.End() > r2.Base {
		t.Error("allocations overlap")
	}
	if _, err := m.AllocOnNode(5, 64); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := m.AllocOnNode(0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := m.AllocOnNode(0, -4); err == nil {
		t.Error("negative size accepted")
	}
	// Alignment: odd sizes round up to lines.
	r3, _ := m.AllocOnNode(1, 65)
	if r3.Size != 128 {
		t.Errorf("allocation size = %d, want 128", r3.Size)
	}
	if r3.Base%64 != 0 {
		t.Error("allocation not line aligned")
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	if _, err := m.AllocOnNode(0, 65*int64(units.GiB)); err == nil {
		t.Error("allocation beyond the node stride accepted")
	}
}

func TestHomeNode(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	r0 := m.MustAlloc(0, 4096)
	r1 := m.MustAlloc(1, 4096)
	if m.MustHomeNode(r0.Base.Line()) != 0 || m.MustHomeNode(r1.Base.Line()) != 1 {
		t.Error("home node mapping wrong")
	}
	if n, err := m.HomeNode(r0.Base.Line()); err != nil || n != 0 {
		t.Errorf("HomeNode = %d, %v", n, err)
	}
}

func TestHomeNodeErrorsOutsideMemory(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	if _, err := m.HomeNode(addr.LineAddr(1)); err == nil {
		t.Error("HomeNode must report unmapped addresses")
	}
}

func TestMustHomeNodePanicsOutsideMemory(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	defer func() {
		if recover() == nil {
			t.Error("MustHomeNode must panic for unmapped addresses")
		}
	}()
	m.MustHomeNode(addr.LineAddr(1))
}

// TestHomeAgentInterleave: without COD a socket's memory interleaves over
// both of its memory controllers line by line (all four channels).
func TestHomeAgentInterleave(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	r := m.MustAlloc(0, 64*1024)
	seen := map[topology.AgentID]int{}
	for _, l := range r.Lines() {
		a := m.HomeAgentOf(l)
		if m.Topo.SocketOfAgent(a) != 0 {
			t.Fatal("node0 line homed on socket 1")
		}
		seen[a]++
	}
	if len(seen) != 2 {
		t.Fatalf("expected both IMCs used, got %v", seen)
	}
	if seen[0] != seen[1] {
		t.Errorf("interleave unbalanced: %v", seen)
	}
}

// TestHomeAgentCOD: with COD each node's memory belongs to its own IMC.
func TestHomeAgentCOD(t *testing.T) {
	m := MustNew(TestSystem(COD))
	for node := 0; node < 4; node++ {
		r := m.MustAlloc(topology.NodeID(node), 4096)
		for _, l := range r.Lines() {
			a := m.HomeAgentOf(l)
			if m.Topo.NodeOfAgent(a) != topology.NodeID(node) {
				t.Fatalf("node %d line homed on agent %d (node %d)", node, a, m.Topo.NodeOfAgent(a))
			}
		}
	}
}

// TestResponsibleCA: the CA is always a slice of the requesting core's node.
func TestResponsibleCA(t *testing.T) {
	for _, mode := range []SnoopMode{SourceSnoop, COD} {
		m := MustNew(TestSystem(mode))
		r := m.MustAlloc(0, 64*1024)
		for c := 0; c < m.Topo.Cores(); c += 5 {
			core := topology.CoreID(c)
			for i, l := range r.Lines() {
				if i > 32 {
					break
				}
				ca := m.ResponsibleCA(core, l)
				if m.Topo.NodeOfSlice(ca) != m.Topo.NodeOfCore(core) {
					t.Fatalf("mode %v: core %d line %d CA %d outside node", mode, core, l, ca)
				}
			}
		}
	}
}

func TestResponsibleCACoversAllSlices(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	r := m.MustAlloc(0, 1024*1024)
	seen := map[topology.SliceID]bool{}
	for _, l := range r.Lines() {
		seen[m.ResponsibleCA(0, l)] = true
	}
	if len(seen) != 12 {
		t.Errorf("hash uses %d of 12 slices", len(seen))
	}
}

func TestLegCosts(t *testing.T) {
	m := MustNew(TestSystem(SourceSnoop))
	same := m.Leg(m.CoreEndpoint(0), m.CoreEndpoint(0))
	if same != 0 {
		t.Errorf("self leg = %v", same)
	}
	onDie := m.Leg(m.CoreEndpoint(0), m.CoreEndpoint(5))
	cross := m.Leg(m.CoreEndpoint(0), m.CoreEndpoint(12))
	if onDie <= 0 || cross <= onDie {
		t.Errorf("leg ordering wrong: on-die %v, cross %v", onDie, cross)
	}
	// A cross-socket leg includes at least one QPI transit.
	if cross.Nanoseconds() < m.Cfg.Lat.QPITransit {
		t.Errorf("cross leg %v below QPI transit", cross)
	}
	if m.CoreEndpoint(12).Socket() != 1 {
		t.Error("endpoint socket wrong")
	}
}

func TestReset(t *testing.T) {
	m := MustNew(TestSystem(COD))
	m.Cores[0].L1D.Insert(cache.Line{Addr: 7, State: cache.Exclusive})
	m.L3[0].Insert(cache.Line{Addr: 7, State: cache.Exclusive})
	m.HAs[0].Dir.SetState(100, directory.SnoopAll)
	m.HAs[0].HitME.Allocate(100, 1, directory.EntryShared)
	m.Reset()
	if m.Cores[0].L1D.Len() != 0 || m.L3[0].Len() != 0 {
		t.Error("caches survived reset")
	}
	if m.HAs[0].Dir.Len() != 0 || m.HAs[0].HitME.Len() != 0 {
		t.Error("directory survived reset")
	}
}

// TestNewAllocatesPerCache: every cache keeps its lines in one array, so
// building the paper's 2 × 12-core COD system costs allocations per cache,
// not per set (the test system has about 63,000 sets).
func TestNewAllocatesPerCache(t *testing.T) {
	if avg := testing.AllocsPerRun(3, func() {
		MustNew(TestSystem(COD))
	}); avg > 1000 {
		t.Errorf("building the COD test system allocates %.0f times, want at most 1000", avg)
	}
}

func TestArchComparison(t *testing.T) {
	rows := ArchComparison()
	if len(rows) != 15 {
		t.Fatalf("Table I rows = %d, want 15", len(rows))
	}
	for _, r := range rows {
		if r.Parameter == "" || r.SandyBridge == "" || r.Haswell == "" {
			t.Errorf("incomplete row %+v", r)
		}
	}
}

func TestDefaultLatencyModelValues(t *testing.T) {
	l := DefaultLatencyModel()
	if l.L1Hit != 1.6 || l.L2Hit != 4.8 {
		t.Error("L1/L2 hit latencies must be the paper's 4/12 cycles")
	}
	if l.QPITransit <= 0 || l.RingHop <= 0 {
		t.Error("transport costs must be positive")
	}
}

func TestMachineString(t *testing.T) {
	m := MustNew(TestSystem(COD))
	if !strings.Contains(m.String(), "Cluster-on-Die") {
		t.Errorf("String = %q", m.String())
	}
}

func TestDirectoryEnabledCombos(t *testing.T) {
	cfg := TestSystem(SourceSnoop)
	if cfg.DirectoryEnabled() {
		t.Error("source snoop must not enable the directory by default")
	}
	cfg.ForceDirectory = true
	if !cfg.DirectoryEnabled() {
		t.Error("ForceDirectory must enable it")
	}
	cod := TestSystem(COD)
	if !cod.DirectoryEnabled() {
		t.Error("COD must enable the directory")
	}
	cod.DisableDirectory = true
	if cod.DirectoryEnabled() {
		t.Error("DisableDirectory must win")
	}
}

func TestHitMESizeOverride(t *testing.T) {
	cfg := TestSystem(COD)
	cfg.HitMEBytes = 56 * units.KiB
	m := MustNew(cfg)
	if got := m.HAs[0].HitME.Capacity(); got != 4*7168 {
		t.Errorf("HitME capacity = %d, want 4x the default", got)
	}
	cfg.DisableHitME = true
	m = MustNew(cfg)
	if m.HAs[0].HitME != nil {
		t.Error("DisableHitME must remove the cache")
	}
	if m.HAs[0].Dir == nil {
		t.Error("the in-memory directory must survive DisableHitME")
	}
}
