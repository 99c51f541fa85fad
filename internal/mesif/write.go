package mesif

import (
	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// Write performs a store to one cache line by the given core: a hit in
// state M writes in place, a hit in state E upgrades silently (leaving the
// L3's state and core-valid bits untouched — the source of the stale-bit
// snoops Section VI-A analyzes), and anything else issues a read-for-
// ownership that invalidates every other copy in the system.
func (e *Engine) Write(core topology.CoreID, l addr.LineAddr) Access {
	e.begin(l)
	return e.finish(OpWrite, core, l, e.writeLine(core, l))
}

// writeLine executes the store transaction; the Write wrapper records the
// result and fires the debug hook.
func (e *Engine) writeLine(core topology.CoreID, l addr.LineAddr) Access {
	lat := e.lat()
	cc := e.M.Core(core)
	rn := e.M.Topo.NodeOfCore(core)

	switch lvl, st := cc.HighestLevelState(l); {
	case lvl == 0:
		return e.rfoMiss(core, rn, l)
	case !st.Unique():
		// A Shared copy: the CA is asked for ownership, which takes at
		// least an L3 round trip plus — when other nodes hold the line —
		// the invalidation acknowledgements.
		e.faultStall()
		return e.grantOwnership(core, rn, l, e.l3RoundTrip(core, l))
	case lvl == 1:
		// Modified writes in place; Exclusive upgrades to Modified
		// silently, the L3 is not informed.
		cc.L1D.Touch(l)
		if st == cache.Exclusive {
			cc.L1D.Update(l, func(ln *cache.Line) { ln.State = cache.Modified })
			cc.L2.Update(l, func(ln *cache.Line) { ln.State = cache.Modified })
		}
		return Access{Latency: nsT(lat.L1Hit), Source: SrcL1}
	default:
		cc.L2.Touch(l)
		cc.L2.Update(l, func(ln *cache.Line) { ln.State = cache.Modified })
		if v, ev := cc.L1D.Insert(cache.Line{Addr: l, State: cache.Modified}); ev {
			e.handleL1Victim(core, v)
		}
		return Access{Latency: nsT(lat.L2Hit), Source: SrcL2}
	}
}

// grantOwnership completes a store whose line the requesting node's L3
// holds, answered by the CA at time t: the store retires once every other
// node's copy is invalidated and the requester holds the line Modified.
func (e *Engine) grantOwnership(core topology.CoreID, rn topology.NodeID, l addr.LineAddr, t units.Time) Access {
	if e.anyPeerHolds(l, rn) {
		t += e.invalidationWait(rn, l)
	}
	e.takeOwnership(core, rn, l, false)
	return Access{Latency: t, Source: SrcL3}
}

// rfoMiss fetches a line for writing that the core does not hold at all.
// The data path is the same as a read miss; all other copies are
// invalidated and the requester ends up with the only (Modified) copy.
func (e *Engine) rfoMiss(core topology.CoreID, rn topology.NodeID, l addr.LineAddr) Access {
	lat := e.lat()
	e.faultStall()

	// A hit in the node's own L3 grants ownership after invalidating the
	// other holders.
	if ent := e.l3EntryOf(rn, l); ent.ok {
		t := e.l3RoundTrip(core, l)
		// A core of this node may hold a newer copy.
		if y, need := e.soleOtherValidCore(ent, core); need {
			t += e.coreRoundTrip(ent.slice, y, lat.SnoopPipe)
		}
		return e.grantOwnership(core, rn, l, t)
	}

	// Full miss: fetch with ownership. The data path mirrors the read
	// miss of the active snoop mode; peer copies are torn down. The
	// requester takes ownership right after the data path, so a MOESI
	// peer's transiently retained Owned copy is torn down by
	// takeOwnership — no directory bookkeeping needed for the forward.
	tMiss := e.requestLeg(core, l) + nsT(lat.TagPipe)
	var data Access
	if e.directoryMiss(l) {
		data = e.rfoDataPathCOD(core, rn, l, tMiss)
	} else {
		data, _, _ = e.snoopDataPath(core, rn, l, tMiss, e.M.Cfg.Mode.HomeSnooped())
	}
	e.takeOwnership(core, rn, l, true)
	return data
}

// rfoDataPathCOD computes the data-arrival latency of an RFO in COD mode.
// Writes cannot use the memory-forward shortcut — ownership requires
// invalidating every sharer — so a snoop-all line always broadcasts.
func (e *Engine) rfoDataPathCOD(core topology.CoreID, rn topology.NodeID, l addr.LineAddr, tMiss units.Time) Access {
	lat := e.lat()
	agent, tHA := e.homeLeg(core, l, tMiss)
	ha := e.M.HAs[agent]
	hn := e.M.MustHomeNode(l)
	from := e.M.AgentEndpoint(agent)

	// Directed snoop on a HitME hit.
	if v, kind, hit := e.hitmeLookup(ha, l); hit && kind == directory.EntryOwned {
		if ent, ok := e.ownedForwarder(v, l, rn); ok {
			acc, _ := e.forwardFrom(ent, from, core, tHA+nsT(lat.DirCachePipe)+nsT(lat.HASnoopLaunch))
			acc.DirCacheHit = true
			return acc
		}
	}

	tDir := tHA + ha.DRAM.AccessTime(e.WorkingSet)
	dirState := e.faultDirectory(agent, ha, l, ha.Dir.State(l), rn, hn)

	// Local snoop at the home node.
	if local, ok := e.homeForwarder(l, rn, hn); ok {
		acc, _ := e.forwardFrom(local, from, core, tHA+nsT(lat.HASnoopLaunch))
		// This path does not book the home node's forward as a remote
		// forward, unlike the read path.
		acc.RemoteFwd = false
		if dirState == directory.SnoopAll {
			// Ownership still needs the broadcast acks.
			acc.Broadcast = true
			acc.Latency = max(acc.Latency, tDir+e.snoopResponseWait(agent, rn, hn))
		}
		return acc
	}

	// Shared or snoop-all: invalidating broadcast; remote-invalid: no
	// snoops at all.
	memT := tDir + e.M.Leg(from, e.M.CoreEndpoint(core))
	broadcast := dirState != directory.RemoteInvalid
	if broadcast {
		if fw, ok := e.forwarderAmong(l, rn, hn); ok {
			acc, _ := e.forwardFrom(fw, from, core, tDir+nsT(lat.HASnoopLaunch))
			acc.Broadcast = true
			return acc
		}
		memT += e.snoopResponseWait(agent, rn, hn)
	}
	ha.DRAM.RecordRead()
	return Access{Latency: memT, Source: SrcMemory, Broadcast: broadcast, RemoteDRAM: hn != rn}
}

// takeOwnership finalizes a store: every other copy in the system is
// invalidated, the requesting core holds the line Modified, its node's L3
// holds it with the core-valid bit set, and the COD directory reflects the
// new owner. fromMiss notes whether peers had to be torn down by a full
// RFO (which allocates an owned HitME entry for cross-node writes — the
// migratory-line case the directory cache exists for).
func (e *Engine) takeOwnership(core topology.CoreID, rn topology.NodeID, l addr.LineAddr, fromMiss bool) {
	peersHeld := false
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		nn := topology.NodeID(n)
		if nn == rn {
			continue
		}
		ent := e.l3EntryOf(nn, l)
		if !ent.ok {
			continue
		}
		peersHeld = true
		// Tear down the peer node's copies; dirty data migrates to the
		// new owner rather than to memory.
		sock := e.M.Topo.SocketOfNode(nn)
		bits := ent.line.CoreValid
		for bit := 0; bits != 0; bit++ {
			if bits&(1<<uint(bit)) == 0 {
				continue
			}
			bits &^= 1 << uint(bit)
			c := topology.CoreID(sock*e.M.Topo.Die.Cores() + bit)
			e.M.Core(c).InvalidateBoth(l)
		}
		e.M.Slice(ent.slice).Invalidate(l)
	}

	// Invalidate other cores of the requester's own node.
	if ent := e.l3EntryOf(rn, l); ent.ok {
		sock := e.M.Topo.SocketOfNode(rn)
		bits := ent.line.CoreValid
		for bit := 0; bits != 0; bit++ {
			if bits&(1<<uint(bit)) == 0 {
				continue
			}
			bits &^= 1 << uint(bit)
			c := topology.CoreID(sock*e.M.Topo.Die.Cores() + bit)
			if c != core {
				e.M.Core(c).InvalidateBoth(l)
			}
		}
		e.M.Slice(ent.slice).Update(l, func(ln *cache.Line) {
			ln.State = cache.Modified
			ln.CoreValid = 1 << uint(e.M.Topo.LocalCore(core))
		})
	} else {
		e.fillL3(rn, l, cache.Modified, core)
	}
	e.fillCore(core, l, cache.Modified)

	// Directory bookkeeping.
	ha := e.M.HA(l)
	if ha.Dir == nil {
		return
	}
	hn := e.M.MustHomeNode(l)
	if rn == hn {
		ha.Dir.SetState(l, directory.RemoteInvalid)
		if ha.HitME != nil {
			ha.HitME.Invalidate(l)
		}
		return
	}
	ha.Dir.SetState(l, directory.SnoopAll)
	if fromMiss && peersHeld {
		e.allocateHitME(l, rn, directory.EntryOwned)
	} else if ha.HitME != nil {
		ha.HitME.Invalidate(l)
	}
}

// Flush performs a coherent clflush of the line issued by the given core:
// every cached copy in the system is invalidated, dirty data is written
// back to the home memory, and the directory returns to remote-invalid.
func (e *Engine) Flush(core topology.CoreID, l addr.LineAddr) Access {
	e.begin(l)
	e.faultStall()
	_, t := e.homeLeg(core, l, e.requestLeg(core, l)+nsT(e.lat().L3Pipe))
	e.invalidateEverywhere(l)
	return e.finish(OpFlush, core, l, Access{Latency: t, Source: SrcMemory})
}
