package mesif_test

import (
	"strings"
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/coherence"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// explainContains asserts the narration mentions every fragment.
func explainContains(t *testing.T, e *mesif.Engine, core topology.CoreID, l addr.LineAddr, frags ...string) string {
	t.Helper()
	out := e.Explain(core, l)
	for _, f := range frags {
		if !strings.Contains(out, f) {
			t.Errorf("explanation missing %q:\n%s", f, out)
		}
	}
	return out
}

// TestExplainDoesNotMutate: Explain must be a pure observer.
func TestExplainDoesNotMutate(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l)
	before := e.L3StateIn(1, l)
	_ = e.Explain(0, l)
	if e.L3StateIn(1, l) != before {
		t.Error("Explain mutated L3 state")
	}
	// The access after Explain behaves as if Explain never happened.
	acc := e.Read(0, l)
	if acc.Source != mesif.SrcPeerL3 && acc.Source != mesif.SrcPeerL3CoreSnoop {
		t.Errorf("post-Explain read = %v", acc.Source)
	}
}

func TestExplainHitCases(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l)
	explainContains(t, e, 0, l, "L1 hit", "served in place")
}

func TestExplainStaleBit(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(1, l)
	e.M.Core(1).InvalidateBoth(l)
	explainContains(t, e, 0, l, "STALE", "44.4 ns")
}

func TestExplainModifiedForward(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Write(1, l)
	explainContains(t, e, 0, l, "forwards M data", "core-to-core forward")
}

func TestExplainSourceSnoopMemory(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	explainContains(t, e, 0, l, "source snoop", "without waiting for snoop responses")
}

func TestExplainHomeSnoopMemory(t *testing.T) {
	e := newEngine(t, machine.HomeSnoop)
	l := lineOn(t, e, 0)
	explainContains(t, e, 0, l, "home snoop", "after all snoop responses")
}

func TestExplainFReclaim(t *testing.T) {
	e := newEngine(t, machine.SourceSnoop)
	l := lineOn(t, e, 0)
	e.Read(0, l)
	e.Read(12, l) // F migrates away; core 0 keeps S
	explainContains(t, e, 0, l, "reclaim F", "L3 round trip")
}

// TestExplainSharedHitReclaimMatchesEngine: a Shared private hit reclaims
// the forwarding copy from another node only under a protocol with a
// Forward state. The same history leaves core 0 with a Shared L1 copy and
// another node with the forwardable copy — F under MESIF, O under MOESI.
// Explain must narrate the path the next real read takes: a reclaim
// through the L3 under MESIF, an L1 hit under MOESI.
func TestExplainSharedHitReclaimMatchesEngine(t *testing.T) {
	for _, tc := range []struct {
		proto   coherence.ID
		holder  cache.State
		explain string
		src     mesif.Source
	}{
		{coherence.MESIF, cache.Forward, "reclaim F", mesif.SrcL3},
		{coherence.MOESI, cache.Owned, "served in place", mesif.SrcL1},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			cfg := machine.TestSystem(machine.COD)
			cfg.Protocol = tc.proto
			e := mesif.New(machine.MustNew(cfg))
			l := lineOn(t, e, 0)
			e.Write(12, l) // node2 owns the line dirty
			e.Read(0, l)   // core 0 takes a Shared copy
			e.Read(6, l)   // a third node reads

			if lvl, st := e.PrivateState(0, l); lvl != 1 || st != cache.Shared {
				t.Fatalf("core 0 holds L%d %v, want L1 Shared", lvl, st)
			}
			fw, ok := e.ForwardNode(l)
			if !ok || fw == 0 || e.L3StateIn(fw, l) != tc.holder {
				t.Fatalf("forwardable copy in node%d (ok=%v), want %v outside node0", fw, ok, tc.holder)
			}
			out := explainContains(t, e, 0, l, tc.explain)
			if tc.proto != coherence.MESIF && strings.Contains(out, "reclaim") {
				t.Errorf("%s narrates a reclaim:\n%s", tc.proto, out)
			}
			if acc := e.Read(0, l); acc.Source != tc.src {
				t.Errorf("next read served from %v, want %v", acc.Source, tc.src)
			}
		})
	}
}

func TestExplainDirectoryPaths(t *testing.T) {
	// HitME shared fast path.
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l)
	e.Read(12, l)
	explainContains(t, e, 0, l, "HitME hit", "without a broadcast")

	// Stale snoop-all.
	r := addr.Region{Base: l.Addr(), Size: 64}
	e.EvictCached(r)
	e.EvictDirectoryCache(r)
	explainContains(t, e, 0, l, "snoop-all", "STALE", "Table V")

	// Remote-invalid fresh memory.
	l2 := lineOn(t, e, 2)
	explainContains(t, e, 0, l2, "remote-invalid")
}

func TestExplainThreeNode(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 1)
	e.Read(6, l)  // home node caches
	e.Read(12, l) // F to node2
	r := addr.Region{Base: l.Addr(), Size: 64}
	e.EvictDirectoryCache(r)
	// Home node1's copy is S (not forwardable); node2 holds F.
	explainContains(t, e, 0, l, "broadcast", "node2 forwards", "Table IV")
}

// TestExplainStaleOwnedEntry: an owned HitME entry whose owner has lost
// its forwardable copy is dropped by the read path, which then broadcasts
// on the snoop-all directory state while the home node's local snoop
// forwards the line. Explain must not promise a directed snoop.
func TestExplainStaleOwnedEntry(t *testing.T) {
	e := newEngine(t, machine.COD)
	l := lineOn(t, e, 0)
	e.Read(0, l)  // the home node caches the line
	e.Write(6, l) // node1 takes it over: an owned HitME entry names node1
	e.Read(0, l)  // node1 forwards to the home node and keeps a Shared copy

	out := explainContains(t, e, 12, l, "is stale", "only the home node's L3 can forward")
	if strings.Contains(out, "directed snoop") {
		t.Errorf("stale owned entry narrated as a directed snoop:\n%s", out)
	}
	acc := e.Read(12, l)
	if acc.DirCacheHit || !acc.Broadcast || acc.Source != mesif.SrcPeerL3 {
		t.Errorf("read = %+v, want a broadcast served by the home node's L3 without a HitME hit", acc)
	}
}
