package mesif_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// newEngine builds a fresh test-system engine in the given mode.
func newEngine(t testing.TB, mode machine.SnoopMode) *mesif.Engine {
	t.Helper()
	return mesif.New(machine.MustNew(machine.TestSystem(mode)))
}

// lineOn returns one line homed on the given node.
func lineOn(t testing.TB, e *mesif.Engine, node int) addr.LineAddr {
	t.Helper()
	r, err := e.M.AllocOnNode(topology.NodeID(node), 64)
	if err != nil {
		t.Fatal(err)
	}
	return r.Base.Line()
}

func TestReadMissGrantsExclusive(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcMemory {
		t.Fatalf("first read source = %v", acc.Source)
	}
	if lvl, st := e.PrivateState(0, l); lvl != 1 || st != cache.Exclusive {
		t.Errorf("core state = L%d %v, want L1 E", lvl, st)
	}
	if st := e.L3StateIn(0, l); st != cache.Exclusive {
		t.Errorf("L3 state = %v, want E", st)
	}
	if e.CoreValidIn(0, l) != 1 {
		t.Errorf("core-valid bits = %b, want core 0", e.CoreValidIn(0, l))
	}
}

func TestSecondReadHitsPrivateCache(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l)
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcL1 {
		t.Errorf("re-read source = %v, want L1", acc.Source)
	}
	if acc.Latency.Nanoseconds() != 1.6 {
		t.Errorf("L1 latency = %v", acc.Latency)
	}
}

func TestWriteMakesModified(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Write(0, l)
	if lvl, st := e.PrivateState(0, l); lvl != 1 || st != cache.Modified {
		t.Errorf("after write: L%d %v", lvl, st)
	}
	if st := e.L3StateIn(0, l); st != cache.Modified {
		t.Errorf("L3 after write = %v", st)
	}
}

// TestSilentEToMUpgrade: writing an Exclusive line upgrades silently; the
// L3 still believes the line is Exclusive (the stale-state mechanism of
// Section VI-A).
func TestSilentEToMUpgrade(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l) // E in core 0
	acc := e.Write(0, l)
	if acc.Source != mesif.SrcL1 {
		t.Fatalf("silent upgrade went to %v", acc.Source)
	}
	if _, st := e.PrivateState(0, l); st != cache.Modified {
		t.Error("core not Modified after upgrade")
	}
	if st := e.L3StateIn(0, l); st != cache.Exclusive {
		t.Errorf("L3 state = %v; the silent upgrade must leave it Exclusive", st)
	}
}

// TestCoreSnoopFindsModified: a second core's read of a silently modified
// line must snoop the owner and be served by a core forward.
func TestCoreSnoopFindsModified(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Write(1, l) // M in core 1's L1
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcCoreForward {
		t.Fatalf("source = %v, want core-forward", acc.Source)
	}
	if acc.FwdLevel != 1 {
		t.Errorf("forward level = %d, want 1", acc.FwdLevel)
	}
	// Both cores now share; the L3 holds the dirty data.
	if _, st := e.PrivateState(1, l); st != cache.Shared {
		t.Error("owner not downgraded to S")
	}
	if _, st := e.PrivateState(0, l); st != cache.Shared {
		t.Error("requester must receive S")
	}
	if st := e.L3StateIn(0, l); st != cache.Modified {
		t.Errorf("L3 must absorb the dirty line, got %v", st)
	}
}

// TestStaleCoreValidBitCausesSnoop: exclusive lines evicted silently leave
// their core-valid bit set; the next reader pays a core snoop even though
// nobody holds a copy (the 44.4 ns case).
func TestStaleCoreValidBitCausesSnoop(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(1, l) // E in core 1, bit set
	// Silent eviction of core 1's copies.
	e.M.Core(1).InvalidateBoth(l)
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcL3CoreSnoop {
		t.Fatalf("source = %v, want L3+core-snoop", acc.Source)
	}
	// Afterwards the stale bit remains alongside the new reader's bit, so
	// a third reader is served without a snoop (multiple bits = shared).
	acc = e.Read(2, l)
	if acc.Source != mesif.SrcL3 {
		t.Errorf("third reader source = %v, want plain L3", acc.Source)
	}
}

// TestMWritebackClearsCoreValid: a modified line written back to the L3
// clears the core-valid bit, so later readers are served without delay
// (Section VI-A).
func TestMWritebackClearsCoreValid(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Write(1, l)
	// Natural eviction of the dirty line from core 1's private caches.
	cc := e.M.Core(1)
	v, _ := cc.L1D.Invalidate(l)
	cc.L2.Invalidate(l)
	if v.State != cache.Modified {
		t.Fatal("setup: line not modified in L1")
	}
	// Simulate the writeback path the eviction cascade takes.
	sl := e.M.ResponsibleCA(1, l)
	e.M.Slice(sl).Update(l, func(ln *cache.Line) {
		ln.State = cache.Modified
		ln.CoreValid = 0
	})
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcL3 {
		t.Errorf("read after writeback = %v, want plain L3 (no snoop)", acc.Source)
	}
}

// TestCrossSocketForwardStates: reading another socket's modified line
// forwards it, writes the dirty data back to the home, and leaves the
// requester's node with the Forward copy.
func TestCrossSocketForwardStates(t *testing.T) {
	for _, mode := range []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop} {
		e := newEngine(t, mode)
		l := lineOn(t, e, 1)
		e.Write(12, l) // M in socket 1
		_, w0 := e.M.HA(l).DRAM.Stats()
		acc := e.Read(0, l)
		if acc.Source != mesif.SrcPeerCore {
			t.Fatalf("%v: source = %v, want peer-core", mode, acc.Source)
		}
		if !acc.RemoteFwd {
			t.Error("RemoteFwd counter not set")
		}
		if st := e.L3StateIn(0, l); st != cache.Forward {
			t.Errorf("%v: requester L3 = %v, want F", mode, st)
		}
		if st := e.L3StateIn(1, l); st != cache.Shared {
			t.Errorf("%v: peer L3 = %v, want S", mode, st)
		}
		if _, w1 := e.M.HA(l).DRAM.Stats(); w1 != w0+1 {
			t.Errorf("%v: dirty forward must write back to home memory", mode)
		}
	}
}

// TestForwardMigratesToNewestReader: F follows the most recent requester.
func TestForwardMigratesToNewestReader(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l)  // E in socket 0
	e.Read(12, l) // socket 1 reads: F moves there
	if st := e.L3StateIn(1, l); st != cache.Forward {
		t.Fatalf("socket1 L3 = %v, want F", st)
	}
	if st := e.L3StateIn(0, l); st != cache.Shared {
		t.Fatalf("socket0 L3 = %v, want S", st)
	}
	if n, ok := e.ForwardNode(l); !ok || n != 1 {
		t.Errorf("forward node = %d (%v)", n, ok)
	}
}

// TestSharedReclaim: a hit on a Shared line in the private caches costs an
// L3 round trip when the forward copy is in another node, and the forward
// designation migrates home (Section VI-C / Figure 9).
func TestSharedReclaim(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l)  // E at core 0
	e.Read(12, l) // F migrates to socket 1, core 0 holds S
	if _, st := e.PrivateState(0, l); st != cache.Shared {
		t.Fatal("setup: core 0 not Shared")
	}
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcL3 {
		t.Fatalf("reclaim source = %v, want L3", acc.Source)
	}
	// A single line may map to a nearby slice; any L3 trip clearly
	// exceeds the 4.8 ns L2 hit.
	if acc.Latency.Nanoseconds() < 10 {
		t.Errorf("reclaim latency = %v, must cost an L3 trip", acc.Latency)
	}
	if n, _ := e.ForwardNode(l); n != 0 {
		t.Errorf("forward copy not reclaimed, still at node %d", n)
	}
	// Once home, further hits are plain L1 hits.
	acc = e.Read(0, l)
	if acc.Source != mesif.SrcL1 {
		t.Errorf("post-reclaim hit = %v, want L1", acc.Source)
	}
}

// TestWriteInvalidatesPeers: a store tears down every other copy.
func TestWriteInvalidatesPeers(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l)
	e.Read(12, l)
	e.Read(3, l)
	e.Write(5, l)
	if _, st := e.PrivateState(0, l); st != cache.Invalid {
		t.Error("core 0 copy survived the write")
	}
	if _, st := e.PrivateState(12, l); st != cache.Invalid {
		t.Error("remote copy survived the write")
	}
	if st := e.L3StateIn(1, l); st != cache.Invalid {
		t.Error("remote L3 copy survived the write")
	}
	if _, st := e.PrivateState(5, l); st != cache.Modified {
		t.Error("writer must own the line Modified")
	}
	if e.L3StateIn(0, l) != cache.Modified {
		t.Error("writer's L3 must hold the line Modified")
	}
}

func TestFlush(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Write(0, l)
	_, w0 := e.M.HA(l).DRAM.Stats()
	e.Flush(0, l)
	if _, st := e.PrivateState(0, l); st != cache.Invalid {
		t.Error("flush left a private copy")
	}
	if e.L3StateIn(0, l) != cache.Invalid {
		t.Error("flush left an L3 copy")
	}
	if _, w1 := e.M.HA(l).DRAM.Stats(); w1 != w0+1 {
		t.Error("flushing dirty data must write memory")
	}
	// Next read comes from memory again.
	if acc := e.Read(0, l); acc.Source != mesif.SrcMemory {
		t.Errorf("read after flush = %v", acc.Source)
	}
}

// --- COD directory behavior ----------------------------------------------

// TestDirRemoteEGrantSetsSnoopAll: granting E to a node outside the home
// sets the in-memory directory to snoop-all (a silent modification could
// follow).
func TestDirRemoteEGrantSetsSnoopAll(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(0, l) // node0 reads node1-homed line, granted E
	if st := e.M.HA(l).Dir.State(l); st != directory.SnoopAll {
		t.Errorf("directory = %v, want snoop-all", st)
	}
}

func TestDirHomeGrantStaysRemoteInvalid(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l) // core 6 is in node1 = the home node
	if st := e.M.HA(l).Dir.State(l); st != directory.RemoteInvalid {
		t.Errorf("directory = %v, want remote-invalid for home-node grants", st)
	}
}

// TestAllocateShared: a cross-node forward with the requester outside the
// home node allocates a HitME entry and pins the directory to snoop-all.
func TestAllocateShared(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l) // home node caches it (E)
	e.Read(0, l) // node0 requests: home's CA forwards, requester outside home
	ha := e.M.HA(l)
	if _, kind, ok := ha.HitME.Peek(l); !ok || kind != directory.EntryShared {
		t.Fatalf("HitME entry missing or wrong kind (ok=%v kind=%v)", ok, kind)
	}
	if ha.Dir.State(l) != directory.SnoopAll {
		t.Error("AllocateShared must pin the in-memory directory to snoop-all")
	}
}

// TestHitMEMemoryForward: with a shared HitME entry the home agent answers
// from memory without a broadcast (the Figure 7 small-set behavior).
func TestHitMEMemoryForward(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l)  // home node holds E
	e.Read(12, l) // node2 reads: forward + AllocateShared; F now at node2
	// node0 reads: HitME hit (shared) -> memory forward; home node's local
	// snoop would also find only an S copy there now.
	acc := e.Read(0, l)
	if !acc.DirCacheHit {
		t.Fatal("expected a directory cache hit")
	}
	if acc.Source != mesif.SrcMemoryForward {
		t.Fatalf("source = %v, want memory-forward", acc.Source)
	}
	if acc.Broadcast {
		t.Error("memory forward must not broadcast")
	}
}

// TestStaleSnoopAllBroadcast reproduces the Table V mechanism: shared data
// evicted silently from all L3s leaves the directory in snoop-all, so the
// home agent broadcasts for nothing and the read pays the full penalty.
func TestStaleSnoopAllBroadcast(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l)
	e.Read(12, l) // AllocateShared: dir = snoop-all
	r := addr.Region{Base: l.Addr(), Size: 64}
	e.EvictCached(r)
	e.EvictDirectoryCache(r)
	if e.M.HA(l).Dir.State(l) != directory.SnoopAll {
		t.Fatal("setup: directory must be stale snoop-all")
	}
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcMemory || !acc.Broadcast {
		t.Fatalf("source=%v broadcast=%v, want memory + broadcast", acc.Source, acc.Broadcast)
	}
	// Compare with the clean path: same geometry, fresh line.
	l2 := lineOn(t, e, 1)
	clean := e.Read(0, l2)
	extra := acc.Latency.Nanoseconds() - clean.Latency.Nanoseconds()
	if extra < 60 || extra > 100 {
		t.Errorf("broadcast penalty = %.1f ns, paper reports 78-89", extra)
	}
}

// TestLocalSnoopIndependentOfDirectory: the home node's own L3 forwards a
// modified line even while the directory still says remote-invalid.
func TestLocalSnoopIndependentOfDirectory(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Write(6, l) // modified within the home node; dir stays remote-invalid
	if e.M.HA(l).Dir.State(l) != directory.RemoteInvalid {
		t.Fatal("setup: dir must be remote-invalid")
	}
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcPeerCore && acc.Source != mesif.SrcPeerL3 {
		t.Fatalf("source = %v, want a home-node forward", acc.Source)
	}
}

// TestOwnedHitMEDirectedSnoop: a migratory write allocates an owned entry;
// the next cross-node write is served by a directed snoop, not a broadcast.
func TestOwnedHitMEDirectedSnoop(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l)  // home node holds it
	e.Write(0, l) // cross-node RFO: owned entry for node0
	ha := e.M.HA(l)
	if _, kind, ok := ha.HitME.Peek(l); !ok || kind != directory.EntryOwned {
		t.Fatalf("owned HitME entry missing (ok=%v kind=%v)", ok, kind)
	}
	acc := e.Write(12, l) // next writer: directed snoop to node0
	if !acc.DirCacheHit {
		t.Errorf("expected directory cache hit, got %+v", acc)
	}
	if acc.Broadcast {
		t.Error("directed snoop must not broadcast")
	}
}

// TestEvictCachedSilence: capacity evictions of clean lines must NOT touch
// the directory (that is the whole point of Table V).
func TestEvictCachedSilence(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(0, l) // E to node0: dir snoop-all
	r := addr.Region{Base: l.Addr(), Size: 64}
	e.EvictCached(r)
	if e.M.HA(l).Dir.State(l) != directory.SnoopAll {
		t.Error("clean eviction must leave the directory stale")
	}
	if e.L3StateIn(0, l) != cache.Invalid {
		t.Error("line survived EvictCached")
	}
}

// TestDirtyEvictionRepairsDirectory: a modified line's writeback from a
// remote owner resets the directory to remote-invalid.
func TestDirtyEvictionRepairsDirectory(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Write(0, l) // M in node0, dir snoop-all
	r := addr.Region{Base: l.Addr(), Size: 64}
	e.EvictCached(r)
	if st := e.M.HA(l).Dir.State(l); st != directory.RemoteInvalid {
		t.Errorf("directory after dirty writeback = %v, want remote-invalid", st)
	}
}

// --- system-wide invariants under random operation sequences -------------

// checkInvariants verifies the MESIF global invariants over a set of lines.
func checkInvariants(t *testing.T, e *mesif.Engine, lines []addr.LineAddr) {
	t.Helper()
	nodes := e.M.Topo.Nodes()
	for _, l := range lines {
		forwardable := 0
		fwd := 0
		holders := 0
		for n := 0; n < nodes; n++ {
			st := e.L3StateIn(topology.NodeID(n), l)
			if st.Valid() {
				holders++
			}
			if st.CanForward() {
				forwardable++
			}
			if st == cache.Forward {
				fwd++
			}
			if st.Unique() && holders > 1 {
				t.Fatalf("line %#x: unique state %v with %d holders", l, st, holders)
			}
		}
		if forwardable > 1 {
			t.Fatalf("line %#x: %d forwardable copies", l, forwardable)
		}
		if fwd > 1 {
			t.Fatalf("line %#x: %d Forward copies", l, fwd)
		}
		// Inclusivity: a core holding the line implies its node's L3
		// holds it too.
		for c := 0; c < e.M.Topo.Cores(); c++ {
			if lvl, _ := e.PrivateState(topology.CoreID(c), l); lvl != 0 {
				node := e.M.Topo.NodeOfCore(topology.CoreID(c))
				if !e.L3StateIn(node, l).Valid() {
					t.Fatalf("line %#x in core %d but not in node %d L3", l, c, node)
				}
			}
		}
		// At most one core system-wide holds the line Modified.
		modified := 0
		for c := 0; c < e.M.Topo.Cores(); c++ {
			if _, st := e.PrivateState(topology.CoreID(c), l); st == cache.Modified {
				modified++
			}
		}
		if modified > 1 {
			t.Fatalf("line %#x modified in %d cores", l, modified)
		}
	}
}

// TestProtocolInvariantsUnderRandomOps drives random reads/writes/flushes
// from random cores in every mode and checks the global MESIF invariants.
func TestProtocolInvariantsUnderRandomOps(t *testing.T) {
	modes := []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop, machine.COD}
	for _, mode := range modes {
		mode := mode
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			e := newEngine(t, mode)
			var lines []addr.LineAddr
			for n := 0; n < e.M.Topo.Nodes(); n++ {
				r, _ := e.M.AllocOnNode(topology.NodeID(n), 8*64)
				lines = append(lines, r.Lines()...)
			}
			for i := 0; i < 400; i++ {
				l := lines[rng.Intn(len(lines))]
				c := topology.CoreID(rng.Intn(e.M.Topo.Cores()))
				switch rng.Intn(5) {
				case 0, 1, 2:
					e.Read(c, l)
				case 3:
					e.Write(c, l)
				case 4:
					e.Flush(c, l)
				}
			}
			checkInvariants(t, e, lines)
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

// TestLatencyDeterminism: the same operation sequence yields identical
// latencies across runs.
func TestLatencyDeterminism(t *testing.T) {
	run := func() []float64 {
		e := newEngine(t, machine.COD)
		var out []float64
		for n := 0; n < 4; n++ {
			l := lineOn(t, e, n)
			out = append(out, e.Read(0, l).Latency.Nanoseconds())
			out = append(out, e.Read(6, l).Latency.Nanoseconds())
			out = append(out, e.Write(12, l).Latency.Nanoseconds())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic latency at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStats: the engine counts operations and sources.
func TestStats(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l)
	e.Read(0, l)
	e.Write(0, l)
	e.Flush(0, l)
	st := e.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.Flushes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BySource[mesif.SrcMemory] == 0 || st.BySource[mesif.SrcL1] == 0 {
		t.Errorf("per-source stats = %v", st.BySource)
	}
	e.ResetStats()
	if s := e.Stats(); s.Reads != 0 || len(s.BySource) != 0 {
		t.Error("ResetStats failed")
	}
}

func TestSourceStrings(t *testing.T) {
	for s := mesif.SrcL1; s <= mesif.SrcMemoryForward; s++ {
		if s.String() == "" {
			t.Errorf("source %d has empty name", s)
		}
	}
	if mesif.Source(99).String() != "Source(99)" {
		t.Error("unknown source string")
	}
}

// TestRemoteCounters: RemoteDRAM / RemoteFwd mirror the paper's events.
func TestRemoteCounters(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 1)
	acc := e.Read(0, l)
	if !acc.RemoteDRAM {
		t.Error("remote memory read must set RemoteDRAM")
	}
	l2 := lineOn(t, e, 0)
	acc = e.Read(0, l2)
	if acc.RemoteDRAM {
		t.Error("local memory read must not set RemoteDRAM")
	}
	// The engine books remote-DRAM loads itself; an RFO from remote
	// memory is a store and does not count.
	if acc = e.Write(0, lineOn(t, e, 1)); !acc.RemoteDRAM {
		t.Error("remote memory RFO must set RemoteDRAM")
	}
	if n := e.Stats().RemoteDRAM; n != 1 {
		t.Errorf("Stats().RemoteDRAM = %d, want 1", n)
	}
}
