package mesif

import (
	"math"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// never is an arrival time no forward loses a race against.
const never = units.Time(math.MaxInt64)

// Read performs a demand load of one cache line by the given core and
// returns the access result. All cache, directory and DRAM state is
// mutated exactly as the protocol prescribes, so consecutive reads observe
// the state changes earlier reads caused (a modified line is only forwarded
// from the owning core once, etc.).
func (e *Engine) Read(core topology.CoreID, l addr.LineAddr) Access {
	e.begin(l)
	return e.finish(OpRead, core, l, e.readLine(core, l))
}

// readLine executes the read transaction; the Read wrapper records the
// result and fires the debug hook.
func (e *Engine) readLine(core topology.CoreID, l addr.LineAddr) Access {
	lat := e.lat()
	cc := e.M.Core(core)
	rn := e.M.Topo.NodeOfCore(core)

	// Private hit; an L2 hit refills the L1.
	if lvl, st := cc.HighestLevelState(l); lvl != 0 {
		if st == cache.Shared {
			if acc, ok := e.sharedReclaim(core, rn, l); ok {
				return acc
			}
		}
		if lvl == 1 {
			cc.L1D.Touch(l)
			return Access{Latency: nsT(lat.L1Hit), Source: SrcL1}
		}
		cc.L2.Touch(l)
		if v, ev := cc.L1D.Insert(cache.Line{Addr: l, State: st}); ev {
			e.handleL1Victim(core, v)
		}
		return Access{Latency: nsT(lat.L2Hit), Source: SrcL2}
	}

	// Private miss: the request travels to the node's responsible CA,
	// which may transiently stall it (fault injection).
	e.faultStall()
	if ent := e.l3EntryOf(rn, l); ent.ok {
		return e.l3Hit(core, l, ent)
	}
	tMiss := e.requestLeg(core, l) + nsT(lat.TagPipe)
	if e.directoryMiss(l) {
		return e.codMiss(core, rn, l, tMiss)
	}
	return e.snoopMiss(core, rn, l, tMiss, e.M.Cfg.Mode.HomeSnooped())
}

// reclaimFrom reports whether a read hit on a Shared private copy in node
// rn must notify the responsible CA so the node reclaims the Forward
// designation, and which node holds it now (the paper's Section VI-C /
// Table IV observation). Only a protocol with a Forward state reclaims:
// under MESI a Shared private hit cannot coexist with a remote unique
// copy, and under MOESI a remote Owned copy keeps its dirty designation —
// either way the hit is served locally with no CA notification.
func (e *Engine) reclaimFrom(rn topology.NodeID, l addr.LineAddr) (topology.NodeID, bool) {
	if !e.M.Proto.HasForward() {
		return 0, false
	}
	fw, ok := e.ForwardNode(l)
	return fw, ok && fw != rn
}

// sharedReclaim serves a Shared private hit that must reclaim the Forward
// designation (reclaimFrom): the access costs a full L3 round trip and
// migrates F to the requester's node.
func (e *Engine) sharedReclaim(core topology.CoreID, rn topology.NodeID, l addr.LineAddr) (Access, bool) {
	fwNode, ok := e.reclaimFrom(rn, l)
	if !ok {
		return Access{}, false
	}
	// Reclaim: this node's L3 copy becomes the forwarder, the old
	// forwarder demotes to Shared.
	old := e.l3EntryOf(fwNode, l)
	if old.ok {
		e.M.Slice(old.slice).Update(l, func(ln *cache.Line) { ln.State = cache.Shared })
	}
	mine := e.l3EntryOf(rn, l)
	if mine.ok {
		e.M.Slice(mine.slice).Update(l, func(ln *cache.Line) {
			if ln.State == cache.Shared {
				ln.State = cache.Forward
			}
		})
	}
	e.M.Core(core).L1D.Touch(l)
	return Access{Latency: e.l3RoundTrip(core, l), Source: SrcL3}, true
}

// l3Hit services a request that hits in the requesting node's L3.
func (e *Engine) l3Hit(core topology.CoreID, l addr.LineAddr, ent nodeEntry) Access {
	slice := e.M.Slice(ent.slice)
	acc := Access{Latency: e.l3RoundTrip(core, l), Source: SrcL3}
	grant := cache.Shared

	if y, need := e.soleOtherValidCore(ent, core); need {
		// The line is Exclusive/Modified with exactly one core-valid
		// bit set for another core: that core may hold a newer copy
		// and must be snooped (the 44.4 ns case when the bit is stale
		// after a silent eviction, Section VI-A).
		rt, lvl := e.snoopCore(ent.slice, y, l, e.lat().SnoopPipe)
		acc.Latency += rt
		acc.Source = SrcL3CoreSnoop
		if lvl > 0 {
			// Forwarded dirty data: the L3 absorbs the new version,
			// both cores end up with shared copies.
			acc.Source, acc.FwdLevel = SrcCoreForward, lvl
			slice.Update(l, func(ln *cache.Line) { ln.State = cache.Modified })
		}
		e.M.Core(y).Downgrade(l, cache.Shared)
		// When the snooped core no longer holds a copy (silent
		// eviction), the stale core-valid bit remains set and the
		// requester receives a Shared copy: from now on multiple bits
		// are set and later readers are served without a snoop — the
		// reason shared lines read at plain L3 latency (Section VI-A).
	} else if ent.line.State.Unique() {
		// No other core holds the line; an E line may be handed out
		// exclusively again.
		bits := ent.line.CoreValid &^ (1 << uint(e.M.Topo.LocalCore(core)))
		if bits == 0 && ent.line.State == cache.Exclusive {
			grant = cache.Exclusive
		}
	}

	slice.Touch(l)
	slice.SetCoreValid(l, e.M.Topo.LocalCore(core), true)
	e.fillCore(core, l, grant)
	return acc
}

// snoopMiss resolves a read miss under source or home snooping without a
// directory. Every other node is snooped — by the requesting CA under
// source snooping, by the home agent under home snooping — and the line
// fills from the forwarding peer or from memory (snoopDataPath).
func (e *Engine) snoopMiss(core topology.CoreID, rn topology.NodeID, l addr.LineAddr, tMiss units.Time, homeSnooped bool) Access {
	sock := e.M.Topo.SocketOfNode(rn)
	if homeSnooped {
		sock = e.M.Topo.SocketOfAgent(e.M.HomeAgentOf(l))
	}
	e.broadcastSnoops(sock, rn, rn)
	acc, fw, kept := e.snoopDataPath(core, rn, l, tMiss, homeSnooped)
	if fw.ok {
		e.fillAfterForward(core, rn, l, fw.node, kept)
	} else {
		e.fillFromMemory(core, rn, l)
	}
	return acc
}

// snoopDataPath prices where a miss's data comes from under source or home
// snooping without a directory; reads and RFOs share it. A peer holding a
// forwardable copy answers directly. Otherwise the home agent sends the
// memory copy: under source snooping without waiting for the snoop
// responses (speculative data return — the reason local memory stays at
// 96.4 ns there while home snooping pays 108 ns), under home snooping only
// once every response is in. For a forward it also returns the forwarding
// node's entry and whether that node kept the line dirty as Owned.
func (e *Engine) snoopDataPath(core topology.CoreID, rn topology.NodeID, l addr.LineAddr, tMiss units.Time, homeSnooped bool) (Access, nodeEntry, bool) {
	if fw, ok := e.forwarderAmong(l, rn, rn); ok {
		from, t := e.M.SliceEndpoint(e.M.ResponsibleCA(core, l)), tMiss
		if homeSnooped {
			agent, tHA := e.homeLeg(core, l, tMiss)
			from, t = e.M.AgentEndpoint(agent), tHA+nsT(e.lat().HASnoopLaunch)
		}
		acc, kept := e.forwardFrom(fw, from, core, t)
		return acc, fw, kept
	}
	agent, tHA := e.homeLeg(core, l, tMiss)
	ha := e.M.HAs[agent]
	wait := ha.DRAM.AccessTime(e.WorkingSet)
	if homeSnooped {
		wait = max(wait, e.snoopResponseWait(agent, rn, rn))
	}
	ha.DRAM.RecordRead()
	return Access{
		Latency:    tHA + wait + e.M.Leg(e.M.AgentEndpoint(agent), e.M.CoreEndpoint(core)),
		Source:     SrcMemory,
		RemoteDRAM: e.M.MustHomeNode(l) != rn,
	}, nodeEntry{}, false
}

// codMiss resolves a read miss under home snooping with the DAS directory
// (COD mode, Section IV-D): the HitME directory cache, then the in-memory
// directory decide whom the home agent snoops.
func (e *Engine) codMiss(core topology.CoreID, rn topology.NodeID, l addr.LineAddr, tMiss units.Time) Access {
	lat := e.lat()
	agent, tHA := e.homeLeg(core, l, tMiss)
	ha := e.M.HAs[agent]
	hn := e.M.MustHomeNode(l)
	from := e.M.AgentEndpoint(agent)
	legHC := e.M.Leg(from, e.M.CoreEndpoint(core))
	haSock := e.M.Topo.SocketOfAgent(agent)

	// The local snoop in the home node is carried out independent of the
	// directory state [5]; if the home node's L3 can forward, that data
	// is on its way regardless of what the directory says. localWins
	// races it against an answer arriving at t: the forward wins when it
	// is faster, or when the home node kept the line dirty as Owned
	// (MOESI) — memory is stale then.
	local, hasLocal := e.homeForwarder(l, rn, hn)
	if hn != rn {
		e.countSnoop(haSock, hn)
	}
	localWins := func(t units.Time) (Access, bool) {
		if !hasLocal {
			return Access{}, false
		}
		acc, kept := e.forwardFrom(local, from, core, tHA+nsT(lat.HASnoopLaunch))
		if acc.Latency >= t && !kept {
			return Access{}, false
		}
		e.fillAfterForward(core, rn, l, local.node, kept)
		return acc, true
	}

	// 1) HitME directory cache.
	if v, kind, hit := e.hitmeLookup(ha, l); hit {
		if kind == directory.EntryShared {
			// The memory copy is valid; the home agent forwards it
			// without snooping (Section VI-C, Figure 7), unless its own
			// node's L3 answers faster.
			memT := tHA + nsT(lat.DirCachePipe) + ha.DRAM.AccessTime(e.WorkingSet) + legHC
			acc, ok := localWins(memT)
			if !ok {
				ha.DRAM.RecordRead()
				e.fillL3(rn, l, cache.Shared, core)
				e.fillCore(core, l, cache.Shared)
				if rn != hn {
					e.hitmeAllocate(ha, l, v.With(int(rn)), directory.EntryShared)
				}
				acc = Access{Latency: memT, Source: SrcMemoryForward, RemoteDRAM: hn != rn}
			}
			acc.DirCacheHit = true
			return acc
		}
		if ent, ok := e.ownedForwarder(v, l, rn); ok {
			e.countSnoop(haSock, ent.node)
			acc, kept := e.forwardFrom(ent, from, core, tHA+nsT(lat.DirCachePipe)+nsT(lat.HASnoopLaunch))
			e.fillAfterForward(core, rn, l, ent.node, kept)
			acc.DirCacheHit = true
			return acc
		}
		// Stale owned entry: drop it; the in-memory directory decides.
		ha.HitME.Invalidate(l)
	}

	// 2) HitME miss: the in-memory directory bits arrive with the DRAM
	// access.
	tDir := tHA + ha.DRAM.AccessTime(e.WorkingSet)
	memT := tDir + legHC
	snoopAll := e.faultDirectory(agent, ha, l, ha.Dir.State(l), rn, hn) == directory.SnoopAll
	if snoopAll {
		// Broadcast to every node except the requester's and the home
		// node (whose CA was already snooped locally).
		e.broadcastSnoops(haSock, rn, hn)
		if fw, ok := e.forwarderAmong(l, rn, hn); ok {
			acc, kept := e.forwardFrom(fw, from, core, tDir+nsT(lat.HASnoopLaunch))
			if !kept {
				if lacc, won := localWins(acc.Latency); won {
					lacc.Broadcast = true
					return lacc
				}
			}
			e.fillAfterForward(core, rn, l, fw.node, kept)
			acc.Broadcast = true
			return acc
		}
		// If only the home node's own L3 holds the line, its local snoop
		// forwards it while the (stale) broadcast drains.
		if acc, won := localWins(never); won {
			acc.Broadcast = true
			return acc
		}
		// Stale snoop-all (silent L3 evictions, Table V): the home agent
		// broadcast for nothing and must collect every response before
		// releasing the memory copy.
		memT += e.snoopResponseWait(agent, rn, hn)
	} else if acc, won := localWins(memT); won {
		// remote-invalid or shared: the memory copy is valid and no
		// remote snoops are required; only the home node's local snoop
		// competes.
		return acc
	}
	ha.DRAM.RecordRead()
	e.dirOnReadGrant(l, rn, e.fillFromMemory(core, rn, l))
	return Access{Latency: memT, Source: SrcMemory, Broadcast: snoopAll, RemoteDRAM: hn != rn}
}
