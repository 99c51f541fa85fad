package mesif

// Fault-injection hooks (package fault): every hook is a no-op when
// e.Faults is nil, and a rate-0 plan consumes no randomness, so the
// fault-free engine and a zero-rate injector produce identical latencies,
// stats, and machine state.
//
// The injector decides *that* a fault strikes; the code here owns the
// recovery obligation — correct data still returned, the repair priced into
// the transaction latency (via the injector's penalty accumulator, drained
// in finish), and machine state legal again before AfterTransaction fires.

import (
	"haswellep/internal/addr"
	"haswellep/internal/directory"
	"haswellep/internal/machine"
	"haswellep/internal/topology"
)

// faultBegin opens a new transaction on the injector.
func (e *Engine) faultBegin() {
	if e.Faults != nil {
		e.Faults.BeginTransaction()
	}
}

// faultStall injects a transient caching-agent stall: the request sits in
// the CA's ingress queue for the plan's stall time before being serviced.
// Rolled once per transaction that reaches a caching agent.
func (e *Engine) faultStall() {
	if e.Faults != nil {
		e.Faults.Stall()
	}
}

// faultSnoopDrop injects dropped snoop responses into one awaited snoop
// round (home-agent response collection, invalidation acknowledgements, or
// a directed forward). Each drop delays completion by the snoop timeout
// plus backoff before the re-issue; the data itself is never lost.
func (e *Engine) faultSnoopDrop() {
	if e.Faults != nil {
		e.Faults.SnoopRetryPenalty()
	}
}

// faultDirectory possibly poisons the in-memory directory entry the home
// agent just read, then executes the recovery: the corruption is written
// into the directory (the fault is real machine state, not a transcript
// fiction), detection of the poisoned entry forces a fallback broadcast to
// every node except the requester's and the home's, and the entry is
// rewritten from ground truth. The caller continues on the repaired state,
// so data correctness never depends on the corrupted value. Returns the
// directory state the transaction should proceed with.
func (e *Engine) faultDirectory(agent topology.AgentID, ha *machine.HomeAgent, l addr.LineAddr, cur directory.MemState, rn, hn topology.NodeID) directory.MemState {
	if e.Faults == nil {
		return cur
	}
	bad, struck := e.Faults.CorruptDirectory(cur)
	if !struck {
		return cur
	}
	e.touch(l) // corruption + repair rewrite the line's directory entry
	ha.Dir.SetState(l, bad)

	// Recovery: the poisoned entry fails its integrity check, so the home
	// agent cannot trust any directory filtering and broadcasts like a
	// snoop-all line, collecting every response before proceeding.
	e.broadcastSnoops(e.M.Topo.SocketOfAgent(agent), rn, hn)
	wait := e.snoopResponseWait(agent, rn, hn)
	e.Faults.AddPenaltyNs(wait.Nanoseconds() + e.lat().DirUpdate)

	// Repair: the collected responses are exact knowledge of the remote
	// holders; rewrite the entry from ground truth.
	truth := e.trueDirectoryState(ha, l, hn)
	ha.Dir.SetState(l, truth)
	e.Faults.NoteDirectoryRepair()
	return truth
}

// trueDirectoryState computes the exact in-memory directory state for the
// line: snoop-all while a valid HitME entry pins it (AllocateShared) or
// any remote node holds a unique or dirty copy (E/M, or MOESI's O — for
// which memory is stale and a snoop is mandatory), shared-remote for
// clean remote copies, remote-invalid otherwise.
func (e *Engine) trueDirectoryState(ha *machine.HomeAgent, l addr.LineAddr, hn topology.NodeID) directory.MemState {
	if ha.HitME != nil {
		if _, _, ok := ha.HitME.Peek(l); ok {
			return directory.SnoopAll
		}
	}
	st := directory.RemoteInvalid
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		nn := topology.NodeID(n)
		if nn == hn {
			continue
		}
		ent := e.l3EntryOf(nn, l)
		if !ent.ok {
			continue
		}
		if ent.line.State.Unique() || ent.line.State.Dirty() {
			return directory.SnoopAll
		}
		st = directory.SharedRemote
	}
	return st
}

// faultHitMEFalseHit fabricates an owned HitME entry for a line the
// directory cache does not actually track. The fabricated owner is always a
// node without a forwardable copy, so the caller's directed snoop finds
// nothing and takes the existing stale-owned fall-through to the in-memory
// directory — the recovery path Section VI-C already prescribes for
// naturally stale entries. The wasted directed snoop is priced here (the
// natural fall-through costs nothing extra, keeping rate-0 runs exact).
func (e *Engine) faultHitMEFalseHit(ha *machine.HomeAgent, l addr.LineAddr) (directory.PresenceVector, directory.EntryKind, bool) {
	nodes := e.M.Topo.Nodes()
	owner, struck := e.Faults.FalseHitOwner(nodes)
	if !struck {
		return 0, directory.EntryShared, false
	}
	node := topology.NodeID(owner)
	if fw, ok := e.ForwardNode(l); ok && fw == node {
		node = topology.NodeID((owner + 1) % nodes)
	}
	// Price the wasted probe: HA -> fabricated owner's CA -> HA, plus the
	// directory-cache pipe that produced the bogus hit.
	lat := e.lat()
	rt := e.tagProbe(e.M.AgentEndpoint(ha.Agent), e.M.SliceEndpoint(e.M.CAForNode(node, l)))
	e.Faults.AddPenaltyNs(rt.Nanoseconds() + lat.DirCachePipe + lat.HASnoopLaunch)
	e.Faults.NoteWastedSnoop()
	e.countSnoop(e.M.Topo.SocketOfAgent(ha.Agent), node)
	return directory.PresenceVector(0).With(int(node)), directory.EntryOwned, true
}
