package mesif

import (
	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/topology"
)

// L3StateIn returns the state of a line in a node's L3 (Invalid if absent).
func (e *Engine) L3StateIn(n topology.NodeID, l addr.LineAddr) cache.State {
	ent := e.l3EntryOf(n, l)
	if !ent.ok {
		return cache.Invalid
	}
	return ent.line.State
}

// CoreValidIn returns the core-valid bits of a line in a node's L3.
func (e *Engine) CoreValidIn(n topology.NodeID, l addr.LineAddr) uint32 {
	ent := e.l3EntryOf(n, l)
	if !ent.ok {
		return 0
	}
	return ent.line.CoreValid
}

// PrivateState returns the innermost private-cache level (1 or 2, 0 when
// absent) and state of a line in a core's caches.
func (e *Engine) PrivateState(c topology.CoreID, l addr.LineAddr) (int, cache.State) {
	return e.M.Core(c).HighestLevelState(l)
}

// ForwardNode returns the node holding the line in a forwardable state.
// Every Shared private hit asks (reclaimFrom), so it returns the node alone
// rather than going through forwarderAmong's full L3 entry.
func (e *Engine) ForwardNode(l addr.LineAddr) (topology.NodeID, bool) {
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		nn := topology.NodeID(n)
		if ent := e.l3EntryOf(nn, l); ent.ok && e.M.Proto.CanForward(ent.line.State) {
			return nn, true
		}
	}
	return 0, false
}

// EvictCached simulates capacity eviction of the region from every cache in
// the system, with the exact semantics of natural L3 replacement: cores are
// back-invalidated (inclusive L3), dirty data is written back to the home
// memory, and clean lines leave silently — crucially WITHOUT updating the
// in-memory directory, which therefore goes stale exactly as on hardware.
//
// The paper provokes this state with working sets beyond the 15 MiB node
// L3; this helper provokes it directly so the Table V preconditions can be
// reproduced with moderate buffer sizes.
func (e *Engine) EvictCached(r addr.Region) {
	// Inspection-time eviction happens outside any transaction and is
	// deliberately untracked (see SetDirtyTracking): suppress dirty-set
	// recording so a region-sized sweep does not grow the set unbounded
	// between transactions (touch dedups by linear scan, which would turn
	// a memory-sized region quadratic).
	track := e.trackDirty
	e.trackDirty = false
	defer func() { e.trackDirty = track }()
	for _, l := range r.Lines() {
		for n := 0; n < e.M.Topo.Nodes(); n++ {
			node := topology.NodeID(n)
			sl := e.M.CAForNode(node, l)
			if ln, ok := e.M.Slice(sl).Invalidate(l); ok {
				e.retireL3Victim(node, ln)
			}
		}
		// Cores whose valid bits were already stale may still hold
		// nothing; cores outside any L3 entry cannot hold the line
		// (inclusivity), but sweep defensively.
		for c := 0; c < e.M.Topo.Cores(); c++ {
			cid := topology.CoreID(c)
			if st := e.M.Core(cid).InvalidateBoth(l); st == cache.Modified {
				e.dramWriteback(l, e.M.Topo.NodeOfCore(cid))
			}
		}
	}
}

// EvictDirectoryCache simulates capacity eviction of the region's entries
// from the home agents' HitME caches (an evicted entry leaves the in-memory
// directory in snoop-all — the stale state behind Table V's broadcasts).
// The paper provokes these evictions with working sets far beyond the
// 14 KiB directory caches.
func (e *Engine) EvictDirectoryCache(r addr.Region) {
	for _, l := range r.Lines() {
		ha := e.M.HA(l)
		if ha.HitME != nil {
			ha.HitME.Invalidate(l)
		}
	}
}
