package mesif

import (
	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/machine"
	"haswellep/internal/topology"
)

// fillCore installs a line into the requesting core's L2 and L1 in the
// given state, cascading evictions: a modified L1 victim falls back to the
// L2, a modified L2 victim is written back to the node's L3 (which clears
// the core-valid bit — Section VI-A), and clean victims are dropped
// silently (leaving stale core-valid bits behind — the cause of the paper's
// 44.4 ns exclusive-line penalty).
func (e *Engine) fillCore(core topology.CoreID, l addr.LineAddr, st cache.State) {
	cc := e.M.Core(core)
	if v, ev := cc.L2.Insert(cache.Line{Addr: l, State: st}); ev {
		e.handleL2Victim(core, v)
	}
	if v, ev := cc.L1D.Insert(cache.Line{Addr: l, State: st}); ev {
		e.handleL1Victim(core, v)
		// The L1 victim's cascade may itself have inserted into the L2 and
		// evicted the line this fill just installed there, which would
		// leave an L1-only copy and break the post-fill contract (present
		// in both levels — see cache.CoreCaches). Re-install it; the
		// re-insert's own victim goes through the normal L2 path.
		if !cc.L2.Contains(l) {
			if v2, ev2 := cc.L2.Insert(cache.Line{Addr: l, State: st}); ev2 {
				e.handleL2Victim(core, v2)
			}
		}
	}
}

// handleL1Victim processes a line evicted from an L1: modified data moves
// to the L2 (possibly cascading), clean lines vanish silently.
func (e *Engine) handleL1Victim(core topology.CoreID, v cache.Line) {
	e.touch(v.Addr)
	if v.State != cache.Modified {
		return
	}
	cc := e.M.Core(core)
	if cc.L2.Contains(v.Addr) {
		cc.L2.Update(v.Addr, func(ln *cache.Line) { ln.State = cache.Modified })
		return
	}
	if v2, ev := cc.L2.Insert(cache.Line{Addr: v.Addr, State: cache.Modified}); ev {
		e.handleL2Victim(core, v2)
	}
}

// handleL2Victim processes a line evicted from an L2. A modified victim is
// written back into the node's L3 slice, marking the L3 copy Modified and
// clearing the evicting core's valid bit — unless the core's L1 still holds
// the line (non-inclusive L1/L2), in which case the bit must survive so the
// L3 keeps tracking the remaining private copy. Clean victims are dropped
// silently — their core-valid bits intentionally remain set.
func (e *Engine) handleL2Victim(core topology.CoreID, v cache.Line) {
	e.touch(v.Addr)
	if v.State != cache.Modified {
		return
	}
	node := e.M.Topo.NodeOfCore(core)
	sl := e.M.CAForNode(node, v.Addr)
	slice := e.M.Slice(sl)
	if slice.Contains(v.Addr) {
		localBit := e.M.Topo.LocalCore(core)
		keepBit := e.M.Core(core).L1D.StateOf(v.Addr).Valid()
		slice.Update(v.Addr, func(ln *cache.Line) {
			ln.State = cache.Modified
			if !keepBit {
				ln.CoreValid &^= 1 << uint(localBit)
			}
		})
		return
	}
	// The L3 lost the line already (capacity victim raced ahead in the
	// eviction cascade): write the dirty data home.
	e.dramWriteback(v.Addr, node)
}

// fillL3 installs a line into the requesting node's L3 slice, setting the
// requester's core-valid bit, and processes the capacity victim: the
// inclusive L3 back-invalidates any cores still holding the victim, dirty
// victims are written back to their home, and clean victims leave silently
// (leaving the in-memory directory stale — the mechanism behind Table V).
func (e *Engine) fillL3(node topology.NodeID, l addr.LineAddr, st cache.State, core topology.CoreID) {
	sl := e.M.CAForNode(node, l)
	slice := e.M.Slice(sl)
	entry := cache.Line{Addr: l, State: st}
	if core >= 0 {
		entry.CoreValid = 1 << uint(e.M.Topo.LocalCore(core))
	}
	victim, evicted := slice.Insert(entry)
	if !evicted {
		return
	}
	e.retireL3Victim(node, victim)
}

// retireL3Victim completes an L3 capacity eviction. A dirty victim —
// Modified, or Owned under MOESI — is written back to its home; the
// write-back of an Owned victim is the deferred memory update MOESI
// skipped when the line was forwarded.
func (e *Engine) retireL3Victim(node topology.NodeID, victim cache.Line) {
	e.touch(victim.Addr)
	dirty := victim.State.Dirty()
	// Back-invalidate cores of this node still holding the line.
	sock := e.M.Topo.SocketOfNode(node)
	bits := victim.CoreValid
	for bit := 0; bits != 0; bit++ {
		if bits&(1<<uint(bit)) == 0 {
			continue
		}
		bits &^= 1 << uint(bit)
		c := topology.CoreID(sock*e.M.Topo.Die.Cores() + bit)
		if st := e.M.Core(c).InvalidateBoth(victim.Addr); st == cache.Modified {
			dirty = true
		}
	}
	if dirty {
		e.dramWriteback(victim.Addr, node)
		return
	}
	// Clean eviction: silent. The home's directory, if any, keeps
	// whatever state it had — possibly a stale snoop-all.
}

// dramWriteback writes a dirty line back to its home memory and updates
// the in-memory directory. Under MESIF/MESI the writeback implies the
// (unique) owner gave the line up, so a remote owner's writeback returns
// the directory to remote-invalid and drops any HitME entry. Under MOESI
// an evicted Owned copy may leave clean Shared copies behind at other
// remote nodes — memory is valid again after the writeback, so those
// survivors demote the directory to shared-remote instead.
func (e *Engine) dramWriteback(l addr.LineAddr, fromNode topology.NodeID) {
	e.touch(l)
	ha := e.M.HA(l)
	ha.DRAM.RecordWrite()
	if ha.Dir == nil {
		return
	}
	home := e.M.MustHomeNode(l)
	if fromNode != home {
		st := directory.RemoteInvalid
		if e.M.Proto.HasOwned() {
			for n := 0; n < e.M.Topo.Nodes(); n++ {
				nn := topology.NodeID(n)
				if nn == home || nn == fromNode {
					continue
				}
				if ent := e.l3EntryOf(nn, l); ent.ok {
					st = directory.SharedRemote
					break
				}
			}
		}
		ha.Dir.SetState(l, st)
		if ha.HitME != nil {
			ha.HitME.Invalidate(l)
		}
	}
}

// invalidateEverywhere removes the line from every cache in the system,
// writing dirty data home, clearing core-valid bits, and resetting the
// directory — the semantics of a coherent clflush reaching memory.
func (e *Engine) invalidateEverywhere(l addr.LineAddr) {
	e.touch(l)
	dirty := false
	for c := 0; c < e.M.Topo.Cores(); c++ {
		if st := e.M.Core(topology.CoreID(c)).InvalidateBoth(l); st == cache.Modified {
			dirty = true
		}
	}
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		sl := e.M.CAForNode(topology.NodeID(n), l)
		if ln, ok := e.M.Slice(sl).Invalidate(l); ok && ln.State.Dirty() {
			dirty = true
		}
	}
	ha := e.M.HA(l)
	if dirty {
		ha.DRAM.RecordWrite()
	}
	if ha.Dir != nil {
		ha.Dir.SetState(l, directory.RemoteInvalid)
		if ha.HitME != nil {
			ha.HitME.Invalidate(l)
		}
	}
}

// fillFromMemory installs a line the home agent answered from memory at
// the requester and returns the state its node's L3 was granted
// (grantStateOnRead); the core takes Exclusive with an Exclusive grant and
// Shared otherwise.
func (e *Engine) fillFromMemory(core topology.CoreID, rn topology.NodeID, l addr.LineAddr) cache.State {
	grant := e.grantStateOnRead(l, rn)
	coreState := cache.Shared
	if grant == cache.Exclusive {
		coreState = cache.Exclusive
	}
	e.fillL3(rn, l, grant, core)
	e.fillCore(core, l, coreState)
	return grant
}

// grantStateOnRead decides the state granted for a read miss serviced by
// memory: Exclusive when no other node caches the line; otherwise Shared —
// except under MESIF, where a clean sharer set without a forward
// designation hands F to the new requester.
func (e *Engine) grantStateOnRead(l addr.LineAddr, requester topology.NodeID) cache.State {
	if !e.anyPeerHolds(l, requester) {
		return cache.Exclusive
	}
	if _, ok := e.forwarderAmong(l, requester, requester); ok {
		// A peer already holds the forward designation. This happens on
		// the directory's no-snoop fill paths (shared-remote / a HitME
		// shared entry), where the forwarder is never consulted and so
		// never demoted: the requester takes a plain Shared copy and the
		// designation stays put, preserving the single-forwarder rule.
		return cache.Shared
	}
	if !e.M.Proto.HasForward() {
		return cache.Shared
	}
	return cache.Forward
}

// fillAfterForward installs a forwarded line at the requester and records
// the forward in the COD directory structures. The node's L3 takes the
// protocol's recipient state (MESIF hands the Forward designation to the
// newest sharer; MESI and MOESI grant plain Shared), the core a Shared
// copy. When the forwarding node kept the line dirty as Owned (MOESI;
// owner names that node), memory is stale: the home agent tracks the owner
// with an owned directory-cache entry and pins the in-memory state to
// snoop-all, so every later miss is routed at the owner, never at memory.
// Otherwise the MESIF/MESI bookkeeping applies: AllocateShared when the
// requester is outside the home node, a plain shared note otherwise.
func (e *Engine) fillAfterForward(core topology.CoreID, rn topology.NodeID, l addr.LineAddr, owner topology.NodeID, ownedKept bool) {
	e.fillL3(rn, l, e.M.Proto.RecipientState(), core)
	e.fillCore(core, l, cache.Shared)
	ha := e.M.HA(l)
	if ha.Dir == nil {
		return
	}
	home := e.M.MustHomeNode(l)
	if ownedKept {
		if owner != home && ha.HitME != nil {
			e.hitmeAllocate(ha, l, directory.PresenceVector(0).With(int(owner)), directory.EntryOwned)
		}
		// An owner inside the home node needs no directory-cache entry:
		// the mandatory local snoop finds it on every miss. Either way
		// the in-memory state must not claim memory is valid.
		ha.Dir.SetState(l, directory.SnoopAll)
		return
	}
	if rn != home {
		e.allocateHitME(l, rn, directory.EntryShared)
		return
	}
	// The requester is the home node; remote sharers remain.
	if e.anyPeerHolds(l, home) && ha.Dir.State(l) == directory.RemoteInvalid {
		ha.Dir.SetState(l, directory.SharedRemote)
	}
}

// dirOnReadGrant updates the in-memory directory after the home agent
// answers a read from memory (COD mode): granting a line to a caching
// agent outside the home node makes the memory state snoop-all when the
// grant is Exclusive (a silent modification could follow) and shared when
// the grant is a clean shared copy.
func (e *Engine) dirOnReadGrant(l addr.LineAddr, requester topology.NodeID, granted cache.State) {
	ha := e.M.HA(l)
	if ha.Dir == nil {
		return
	}
	home := e.M.MustHomeNode(l)
	if requester == home {
		return // home-node copies are found by the mandatory local snoop
	}
	if granted.Unique() {
		ha.Dir.SetState(l, directory.SnoopAll)
	} else if ha.Dir.State(l) == directory.RemoteInvalid {
		ha.Dir.SetState(l, directory.SharedRemote)
	}
}

// allocateHitME applies the AllocateShared policy [5] after a cache-to-cache
// forward: when a caching agent forwards a line to a requester outside the
// home node, the home agent enters the line into its directory cache and
// pins the in-memory directory to snoop-all. Shared forwards produce
// EntryShared entries (memory stays valid); dirty forwards produce
// EntryOwned entries naming the new owner.
func (e *Engine) allocateHitME(l addr.LineAddr, requester topology.NodeID, kind directory.EntryKind) {
	ha := e.M.HA(l)
	if ha.Dir == nil {
		return
	}
	home := e.M.MustHomeNode(l)
	if requester == home {
		return
	}
	if ha.HitME == nil {
		// Directory without directory cache (DisableHitME ablation):
		// the in-memory state still goes conservative.
		ha.Dir.SetState(l, directory.SnoopAll)
		return
	}
	var v directory.PresenceVector
	if kind == directory.EntryOwned {
		v = v.With(int(requester))
	} else {
		v = e.sharerVector(l).With(int(requester))
	}
	e.hitmeAllocate(ha, l, v, kind)
	ha.Dir.SetState(l, directory.SnoopAll)
}

// hitmeAllocate enters a line into the home agent's directory cache,
// adding any capacity-displaced entry's line to the dirty set (the evicted
// line's in-memory snoop-all state loses its HitME pinning).
func (e *Engine) hitmeAllocate(ha *machine.HomeAgent, l addr.LineAddr, v directory.PresenceVector, kind directory.EntryKind) {
	e.touch(l)
	if victim, evicted := ha.HitME.Allocate(l, v, kind); evicted {
		e.touch(victim)
	}
}
