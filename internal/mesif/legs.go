package mesif

// Protocol legs: the steps the paper's Section VI sums into every latency —
// the request to the caching agent, the L3 answer, a core snoop, the
// forward out of a peer node, the home agent's snoop-response wait. Each
// leg has exactly one implementation that the read and write paths share,
// so no two paths can price the same step two ways. The DRAM access itself
// is priced by the home agent's controller (dram.Controller.AccessTime).

import (
	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/machine"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// requestLeg prices a private miss's request from the core to the CA
// responsible for the line in the core's node.
func (e *Engine) requestLeg(core topology.CoreID, l addr.LineAddr) units.Time {
	ca := e.M.ResponsibleCA(core, l)
	return nsT(e.lat().RequestLaunch) + e.M.Leg(e.M.CoreEndpoint(core), e.M.SliceEndpoint(ca))
}

// l3RoundTrip prices a request the core's own node L3 answers: the
// request leg, the L3 pipeline, and the response leg back to the core.
func (e *Engine) l3RoundTrip(core topology.CoreID, l addr.LineAddr) units.Time {
	ca := e.M.SliceEndpoint(e.M.ResponsibleCA(core, l))
	return e.requestLeg(core, l) + nsT(e.lat().L3Pipe) + e.M.Leg(ca, e.M.CoreEndpoint(core))
}

// homeLeg prices the request's onward leg from the CA, leaving at t, to the
// line's home agent through the agent's pipeline. It returns the agent and
// the time the agent starts processing.
func (e *Engine) homeLeg(core topology.CoreID, l addr.LineAddr, t units.Time) (topology.AgentID, units.Time) {
	agent := e.M.HomeAgentOf(l)
	ca := e.M.SliceEndpoint(e.M.ResponsibleCA(core, l))
	return agent, t + e.M.Leg(ca, e.M.AgentEndpoint(agent)) + nsT(e.lat().HAPipe)
}

// coreRoundTrip prices a CA's snoop of core y: the leg from slice sl to the
// core, the leg back, and the snoop pipeline.
func (e *Engine) coreRoundTrip(sl topology.SliceID, y topology.CoreID, pipeNs float64) units.Time {
	s, c := e.M.SliceEndpoint(sl), e.M.CoreEndpoint(y)
	return e.M.Leg(s, c) + e.M.Leg(c, s) + nsT(pipeNs)
}

// snoopCore prices a CA's snoop of core y for the line: the round trip
// plus, when y holds the line Modified, the extra time to forward the
// dirty data out of its L1 or L2. It returns the cost and the level the
// data came from (0 when y answered clean or held nothing).
func (e *Engine) snoopCore(sl topology.SliceID, y topology.CoreID, l addr.LineAddr, pipeNs float64) (units.Time, int) {
	rt := e.coreRoundTrip(sl, y, pipeNs)
	switch lvl, st := e.M.Core(y).HighestLevelState(l); {
	case st != cache.Modified:
		return rt, 0
	case lvl == 1:
		return rt + nsT(e.lat().FwdL1Extra), 1
	default:
		return rt + nsT(e.lat().FwdL2Extra), 2
	}
}

// tagProbe prices a probe from one agent to a CA and the answer back: both
// legs plus the CA's tag lookup.
func (e *Engine) tagProbe(from, ca machine.Endpoint) units.Time {
	return e.M.Leg(from, ca) + nsT(e.lat().TagPipe) + e.M.Leg(ca, from)
}

// forwardFrom prices a cache-to-cache forward out of a peer node's L3: the
// snoop's leg from the issuing agent (from) to the peer CA, the peer's
// service (peerService), and the data's leg on to the requesting core,
// added to the time t the snoop leaves. It returns the access (a remote
// forward) and whether the peer kept the line dirty as Owned.
func (e *Engine) forwardFrom(fw nodeEntry, from machine.Endpoint, core topology.CoreID, t units.Time) (Access, bool) {
	peer := e.M.SliceEndpoint(fw.slice)
	acc, kept := e.peerService(fw)
	acc.Latency += t + e.M.Leg(from, peer) + e.M.Leg(peer, e.M.CoreEndpoint(core))
	return acc, kept
}

// peerService executes the peer-node side of a cross-node request: the
// peer CA's lookup, an intra-node core snoop when its core-valid bits
// demand one, the forward itself, and all peer-side state transitions.
// The returned access carries the service time at the peer, the data
// source class and the forwarding cache level; the flag reports whether
// the peer retained the line dirty as Owned (MOESI) — in which case memory
// was NOT updated and the directory must keep routing requests at the
// peer.
func (e *Engine) peerService(ent nodeEntry) (Access, bool) {
	lat := e.lat()
	// The response carrying the forwarded data may be dropped and
	// re-issued (fault injection).
	e.faultSnoopDrop()
	acc := Access{Latency: nsT(lat.L3Pipe) + nsT(lat.NodeTransferPipe), Source: SrcPeerL3, RemoteFwd: true}
	dirty := ent.line.State.Dirty()

	if y, need := e.soleOtherValidCore(ent, topology.CoreID(-1)); need {
		rt, lvl := e.snoopCore(ent.slice, y, ent.line.Addr, lat.PeerSnoopPipe)
		acc.Latency += rt
		acc.Source = SrcPeerL3CoreSnoop
		if lvl > 0 {
			acc.Source, acc.FwdLevel = SrcPeerCore, lvl
			dirty = true
		}
	}

	// Peer-side transitions: every core copy in the peer node demotes to
	// Shared; the L3 copy downgrades as the protocol prescribes — MESIF
	// and MESI write forwarded dirty data back to the home (QPI RspFwdS
	// semantics, the line is clean afterwards), MOESI keeps it dirty in
	// the Owned state with memory left stale.
	slice := e.M.Slice(ent.slice)
	sock := e.M.Topo.SocketOfSlice(ent.slice)
	bits := ent.line.CoreValid
	for bit := 0; bits != 0; bit++ {
		if bits&(1<<uint(bit)) == 0 {
			continue
		}
		bits &^= 1 << uint(bit)
		c := topology.CoreID(sock*e.M.Topo.Die.Cores() + bit)
		if e.M.Core(c).HasValid(ent.line.Addr) {
			e.M.Core(c).Downgrade(ent.line.Addr, cache.Shared)
		} else {
			slice.SetCoreValid(ent.line.Addr, bit, false)
		}
	}
	st := ent.line.State
	if dirty {
		// The L3 copy was dirty, or a core forwarded a newer version
		// the L3 absorbed during the transfer.
		st = cache.Modified
	}
	next, writeback := e.M.Proto.DowngradeOnForward(st)
	slice.Update(ent.line.Addr, func(ln *cache.Line) { ln.State = next })
	if writeback {
		e.M.HA(ent.line.Addr).DRAM.RecordWrite()
	}
	return acc, next == cache.Owned
}

// snoopResponseWait returns how long the home agent waits, from the moment
// it starts processing, for the snoop responses of every node except a and
// b, plus conflict resolution.
func (e *Engine) snoopResponseWait(agent topology.AgentID, a, b topology.NodeID) units.Time {
	lat := e.lat()
	from := e.M.AgentEndpoint(agent)
	var worst units.Time
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		if nn := topology.NodeID(n); nn != a && nn != b {
			// The CA of line 0 stands in for the node in leg costing.
			ca := e.M.SliceEndpoint(e.M.CAForNode(nn, 0))
			worst = max(worst, nsT(lat.HASnoopLaunch)+e.tagProbe(from, ca))
		}
	}
	if worst == 0 {
		return 0
	}
	// Any of the awaited responses may be dropped and re-issued (fault
	// injection).
	e.faultSnoopDrop()
	return worst + nsT(lat.HAResolve)
}

// invalidationWait estimates the time to collect invalidation
// acknowledgements from every node other than the requester's.
func (e *Engine) invalidationWait(rn topology.NodeID, l addr.LineAddr) units.Time {
	ca := e.M.SliceEndpoint(e.M.CAForNode(rn, l))
	var worst units.Time
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		if nn := topology.NodeID(n); nn != rn {
			if ent := e.l3EntryOf(nn, l); ent.ok {
				worst = max(worst, e.tagProbe(ca, e.M.SliceEndpoint(ent.slice)))
			}
		}
	}
	if worst > 0 {
		// Any of the awaited acknowledgements may be dropped and
		// re-issued (fault injection).
		e.faultSnoopDrop()
	}
	return worst
}
