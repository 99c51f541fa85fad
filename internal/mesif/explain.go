package mesif

import (
	"fmt"
	"strings"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/topology"
)

// Explain narrates, from the CURRENT machine state, the path a read of the
// line by the given core will take — which structures are consulted, who is
// snooped, where the data comes from — without mutating any state. It is
// the simulator's answer to the reverse-engineering narrative of the
// paper's Section VI: every case discussed there renders as one of these
// stories. Every branch is decided by the predicates the read path itself
// decides with, so the story cannot drift from the engine.
func (e *Engine) Explain(core topology.CoreID, l addr.LineAddr) string {
	var b strings.Builder
	rn := e.M.Topo.NodeOfCore(core)
	hn := e.M.MustHomeNode(l)
	fmt.Fprintf(&b, "core %d (node%d) reads line %#x (home: node%d)\n", core, rn, l, hn)

	if lvl, st := e.M.Core(core).HighestLevelState(l); lvl != 0 {
		fmt.Fprintf(&b, "  L%d hit in state %v", lvl, st)
		if st == cache.Shared {
			if fwNode, ok := e.reclaimFrom(rn, l); ok {
				fmt.Fprintf(&b, "\n  forward copy lives in node%d: the access notifies the CA to reclaim F\n", fwNode)
				fmt.Fprintf(&b, "  -> costs a full L3 round trip despite the private-cache hit (Fig. 9 effect)")
				return b.String()
			}
		}
		fmt.Fprintf(&b, " -> served in place (%s)", hitLatencyName(lvl))
		return b.String()
	}

	ca := e.M.ResponsibleCA(core, l)
	fmt.Fprintf(&b, "  private miss -> request to CA (L3 slice %d of node%d)\n", ca, rn)

	if ent := e.l3EntryOf(rn, l); ent.ok {
		fmt.Fprintf(&b, "  L3 hit in state %v, core-valid bits %012b\n", ent.line.State, ent.line.CoreValid)
		if y, need := e.soleOtherValidCore(ent, core); need {
			lvl, st := e.M.Core(y).HighestLevelState(l)
			switch {
			case st == cache.Modified:
				fmt.Fprintf(&b, "  unique state + single foreign valid bit: CA snoops core %d, which forwards M data from its L%d\n", y, lvl)
				fmt.Fprintf(&b, "  -> core-to-core forward (the 53/49 ns case)")
			case st.Valid():
				fmt.Fprintf(&b, "  CA snoops core %d; it answers clean -> data from L3 after the snoop (44.4 ns case)", y)
			default:
				fmt.Fprintf(&b, "  core %d's valid bit is STALE (silent eviction): the snoop finds nothing,\n", y)
				fmt.Fprintf(&b, "  -> data from L3 after the wasted snoop (the 44.4 ns case)")
			}
			return b.String()
		}
		fmt.Fprintf(&b, "  no core snoop needed -> L3 serves directly (21.2/18.0 ns class)")
		return b.String()
	}
	fmt.Fprintf(&b, "  L3 miss in node%d\n", rn)

	if e.directoryMiss(l) {
		e.explainDirectory(&b, rn, hn, l)
		return b.String()
	}
	fw, ok := e.forwarderAmong(l, rn, rn)
	if !e.M.Cfg.Mode.HomeSnooped() {
		fmt.Fprintf(&b, "  source snoop: the CA broadcasts to all peer CAs and the home agent in parallel\n")
		if ok {
			fmt.Fprintf(&b, "  node%d's L3 holds the line in %v -> it forwards directly to the requester", fw.node, fw.line.State)
			return b.String()
		}
		fmt.Fprintf(&b, "  no cache can forward -> home agent sends the memory copy without waiting for snoop responses")
		return b.String()
	}
	fmt.Fprintf(&b, "  home snoop: the request goes to node%d's home agent, which snoops the peers\n", hn)
	if ok {
		fmt.Fprintf(&b, "  node%d forwards from its L3 (state %v) when the snoop arrives", fw.node, fw.line.State)
		return b.String()
	}
	fmt.Fprintf(&b, "  no forwarder -> memory data is released only after all snoop responses (the +12%% local penalty)")
	return b.String()
}

// explainDirectory narrates the COD/directory decision tree of codMiss.
func (e *Engine) explainDirectory(b *strings.Builder, rn, hn topology.NodeID, l addr.LineAddr) {
	ha := e.M.HA(l)
	fmt.Fprintf(b, "  home snoop + directory: the request goes to node%d's home agent\n", hn)
	local, hasLocal := e.homeForwarder(l, rn, hn)
	if hasLocal {
		fmt.Fprintf(b, "  the mandatory local snoop finds the home node's L3 in %v -> it forwards (directory not waited for)\n", local.line.State)
	}
	var v directory.PresenceVector
	var kind directory.EntryKind
	hit := false
	if ha.HitME != nil {
		v, kind, hit = ha.HitME.Peek(l)
	}
	switch {
	case ha.HitME == nil:
		fmt.Fprintf(b, "  no directory cache -> the in-memory directory bits arrive with the DRAM access\n")
	case !hit:
		fmt.Fprintf(b, "  HitME miss -> the in-memory directory bits arrive with the DRAM access\n")
	case kind == directory.EntryShared:
		fmt.Fprintf(b, "  HitME hit (%v, sharers %v): the memory copy is valid -> forwarded from DRAM without a broadcast (Fig. 7 fast path)", kind, v.Nodes())
		return
	default:
		if owner, ok := e.ownedForwarder(v, l, rn); ok {
			fmt.Fprintf(b, "  HitME hit (%v -> node%d): directed snoop instead of a broadcast", kind, owner.node)
			return
		}
		fmt.Fprintf(b, "  HitME hit (%v, nodes %v) is stale: no owner can forward, so the entry is dropped\n", kind, v.Nodes())
		fmt.Fprintf(b, "  -> the in-memory directory bits arrive with the DRAM access\n")
	}
	switch ha.Dir.State(l) {
	case directory.RemoteInvalid:
		fmt.Fprintf(b, "  directory: remote-invalid -> no snoops; memory (or the home node's L3) answers")
	case directory.SharedRemote:
		fmt.Fprintf(b, "  directory: shared -> the memory copy is valid for reads; no broadcast")
	case directory.SnoopAll:
		if fw, ok := e.forwarderAmong(l, rn, hn); ok {
			fmt.Fprintf(b, "  directory: snoop-all -> broadcast; node%d forwards from its L3 (%v)\n", fw.node, fw.line.State)
			fmt.Fprintf(b, "  -> the three-node transaction of Table IV (160+ ns)")
		} else if hasLocal {
			fmt.Fprintf(b, "  directory: snoop-all -> broadcast, but only the home node's L3 can forward;\n")
			fmt.Fprintf(b, "  -> its local snoop answers while the broadcast drains")
		} else {
			fmt.Fprintf(b, "  directory: snoop-all but nobody holds the line (silent evictions left it STALE)\n")
			fmt.Fprintf(b, "  -> a useless broadcast delays the memory copy by ~80 ns (the Table V penalty)")
		}
	}
}

// hitLatencyName names the hit class.
func hitLatencyName(lvl int) string {
	if lvl == 1 {
		return "1.6 ns"
	}
	return "4.8 ns"
}
