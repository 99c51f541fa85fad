// Package directory implements the two directory structures Haswell-EP's
// home agents use to reduce snoop traffic (Sections II and IV of the paper):
//
//   - The in-memory directory of the "directory assisted snoop broadcast"
//     (DAS) protocol [4]: two bits per cache line, stored in the memory ECC
//     bits, encoding remote-invalid / shared / snoop-all.
//   - The "HitME" directory cache [5]: a small (14 KiB per home agent)
//     cache of 8-bit node-presence vectors for hotly contested (migratory)
//     lines, with the AllocateShared allocation policy.
//
// Both are consulted and maintained by the home agents in package mesif when
// the machine runs in COD mode.
//
//hsw:tier engine
package directory

import (
	"fmt"
	"math/bits"
	"sort"

	"haswellep/internal/addr"
	"haswellep/internal/units"
)

// MemState is the 2-bit in-memory directory state of a line.
type MemState uint8

// In-memory directory states ([4], Section IV-A).
const (
	// RemoteInvalid: no caching agent outside the home node holds the
	// line. The home agent may answer from memory without any snoop.
	RemoteInvalid MemState = iota
	// SharedRemote: one or more clean copies exist outside the home node.
	// Reads can still be answered from memory; invalidations must snoop.
	SharedRemote
	// SnoopAll: a potentially modified copy may exist in another node;
	// the home agent must snoop before answering (unless the HitME cache
	// proves the line is merely shared).
	SnoopAll
)

// String names the state.
func (s MemState) String() string {
	switch s {
	case RemoteInvalid:
		return "remote-invalid"
	case SharedRemote:
		return "shared"
	case SnoopAll:
		return "snoop-all"
	default:
		return fmt.Sprintf("MemState(%d)", int(s))
	}
}

// InMemory is the per-home-agent in-memory directory. Absent entries read
// as RemoteInvalid, exactly like freshly initialized ECC directory bits.
//
// The store is an open-addressed, power-of-two hash table with linear
// probing: parallel key/state arrays, no boxing, no per-entry allocation.
// A slot holding RemoteInvalid IS the empty slot — the directory's own
// semantics make the default state and absence indistinguishable, so
// deletion (SetState to RemoteInvalid) backward-shifts the probe chain and
// the table never needs tombstones. The transaction hot path (State,
// SetState) therefore costs one multiply and a short probe, with zero
// allocations.
type InMemory struct {
	keys   []addr.LineAddr
	states []MemState
	mask   uint64
	shift  uint
	n      int
	// writes counts directory update operations (each implies a memory
	// write of the ECC bits).
	writes uint64
	// sorted caches the ascending key list ForEach iterates; it is
	// invalidated by any insert or delete and rebuilt (into the same
	// buffer) on the next ForEach.
	sorted   []addr.LineAddr
	sortedOK bool
}

// inMemoryMinSlots is the initial table size; must be a power of two.
const inMemoryMinSlots = 1024

// NewInMemory builds an empty in-memory directory.
func NewInMemory() *InMemory {
	d := &InMemory{}
	d.init(inMemoryMinSlots)
	return d
}

func (d *InMemory) init(slots int) {
	d.keys = make([]addr.LineAddr, slots)
	d.states = make([]MemState, slots)
	d.mask = uint64(slots - 1)
	d.shift = 64 - uint(bits.TrailingZeros(uint(slots)))
	d.n = 0
}

// slotOf returns the starting probe slot for a line (Fibonacci hashing:
// the top log2(slots) bits of the multiplicative hash).
func (d *InMemory) slotOf(l addr.LineAddr) uint64 {
	return (uint64(l) * 0x9e3779b97f4a7c15) >> d.shift
}

// State returns the directory state of a line.
func (d *InMemory) State(l addr.LineAddr) MemState {
	i := d.slotOf(l)
	for {
		if d.states[i] == RemoteInvalid {
			return RemoteInvalid
		}
		if d.keys[i] == l {
			return d.states[i]
		}
		i = (i + 1) & d.mask
	}
}

// SetState updates the directory state of a line, counting a write when the
// state actually changes.
func (d *InMemory) SetState(l addr.LineAddr, s MemState) {
	i := d.slotOf(l)
	for {
		if d.states[i] == RemoteInvalid {
			// Absent. Setting to the default state is a no-op.
			if s == RemoteInvalid {
				return
			}
			d.writes++
			d.keys[i] = l
			d.states[i] = s
			d.n++
			d.sortedOK = false
			// Grow at 3/4 load so probe chains stay short.
			if uint64(d.n)*4 > (d.mask+1)*3 {
				d.grow()
			}
			return
		}
		if d.keys[i] == l {
			if d.states[i] == s {
				return
			}
			d.writes++
			if s == RemoteInvalid {
				d.deleteSlot(i)
				return
			}
			d.states[i] = s
			return
		}
		i = (i + 1) & d.mask
	}
}

// deleteSlot empties slot i and backward-shifts the rest of its probe chain
// so every surviving entry stays reachable from its home slot.
func (d *InMemory) deleteSlot(i uint64) {
	d.n--
	d.sortedOK = false
	for {
		d.states[i] = RemoteInvalid
		d.keys[i] = 0
		// Walk the chain after the hole; move back any entry whose home
		// slot does not lie strictly between the hole and its current slot.
		j := i
		for {
			j = (j + 1) & d.mask
			if d.states[j] == RemoteInvalid {
				return
			}
			h := d.slotOf(d.keys[j])
			// Entry at j belongs at h; it may fill the hole at i unless h
			// lies in the (cyclic) range (i, j].
			if (j >= i && (h > i && h <= j)) || (j < i && (h > i || h <= j)) {
				continue
			}
			d.keys[i] = d.keys[j]
			d.states[i] = d.states[j]
			i = j
			break
		}
	}
}

// grow doubles the table and re-inserts every entry.
func (d *InMemory) grow() {
	oldKeys, oldStates := d.keys, d.states
	d.init(len(oldKeys) * 2)
	for i, s := range oldStates {
		if s == RemoteInvalid {
			continue
		}
		l := oldKeys[i]
		j := d.slotOf(l)
		for d.states[j] != RemoteInvalid {
			j = (j + 1) & d.mask
		}
		d.keys[j] = l
		d.states[j] = s
		d.n++
	}
}

// Writes returns how many directory state changes occurred.
func (d *InMemory) Writes() uint64 { return d.writes }

// ForEach calls fn for every line in a non-default (non-RemoteInvalid)
// state, in ascending address order. The deterministic order matters:
// invariant checkers emit violations from inside this callback, and those
// reach replay digests and flight-recorder captures, which require
// byte-identical re-execution. fn must not mutate the directory.
//
// The ascending key list is cached between calls and only rebuilt (into
// the same buffer) after an insert or delete, so back-to-back full checks
// on an unchanged directory pay no sort.
func (d *InMemory) ForEach(fn func(addr.LineAddr, MemState)) {
	if !d.sortedOK {
		d.sorted = d.sorted[:0]
		for i, s := range d.states {
			if s != RemoteInvalid {
				d.sorted = append(d.sorted, d.keys[i])
			}
		}
		sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i] < d.sorted[j] })
		d.sortedOK = true
	}
	for _, l := range d.sorted {
		fn(l, d.State(l))
	}
}

// ForEachUnordered calls fn for every line in a non-default state, in
// storage (probe-table) order. It skips the sorted-key maintenance ForEach
// pays for; callers that sort or bucket the lines themselves — the
// invariant checker's full-machine sweep — use it so a directory mutated
// since the last sweep costs O(slots) to walk, not O(n log n) to re-sort.
// fn must not mutate the directory.
func (d *InMemory) ForEachUnordered(fn func(addr.LineAddr, MemState)) {
	for i, s := range d.states {
		if s != RemoteInvalid {
			fn(d.keys[i], s)
		}
	}
}

// Len returns the number of lines in a non-default state.
func (d *InMemory) Len() int { return d.n }

// Clear resets every line to RemoteInvalid in place, retaining the table's
// capacity: a cleared directory allocates nothing when refilled to its
// previous size (farm points reuse engines across resets).
func (d *InMemory) Clear() {
	for i := range d.states {
		d.states[i] = RemoteInvalid
		d.keys[i] = 0
	}
	d.n = 0
	d.writes = 0
	d.sorted = d.sorted[:0]
	d.sortedOK = false
}

// PresenceVector is a bitmask of NUMA nodes holding a copy of a line; the
// HitME cache stores 8-bit vectors, so at most 8 nodes are supported.
type PresenceVector uint8

// With returns the vector with node's bit set.
func (v PresenceVector) With(node int) PresenceVector { return v | 1<<uint(node) }

// Without returns the vector with node's bit cleared.
func (v PresenceVector) Without(node int) PresenceVector { return v &^ (1 << uint(node)) }

// Has reports whether node's bit is set.
func (v PresenceVector) Has(node int) bool { return v&(1<<uint(node)) != 0 }

// Count returns the number of nodes present.
func (v PresenceVector) Count() int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// Sole returns the lowest node id present in the vector (the only one when
// Count() == 1). It is the allocation-free form of Nodes()[0] the
// transaction hot path uses; calling it on an empty vector is a programmer
// error (it returns 8, outside every topology).
func (v PresenceVector) Sole() int { return bits.TrailingZeros8(uint8(v)) }

// Nodes lists the node ids present in the vector, ascending.
func (v PresenceVector) Nodes() []int {
	var out []int
	for i := 0; i < 8; i++ {
		if v.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// EntryKind distinguishes how a HitME entry was allocated and therefore how
// the home agent may use it.
type EntryKind uint8

// HitME entry kinds.
const (
	// EntryShared: the line was forwarded in state Forward to a node
	// outside the home node (AllocateShared). The memory copy is valid
	// and the home agent may forward it without snooping.
	EntryShared EntryKind = iota
	// EntryOwned: the line was granted for modification (or forwarded
	// while modified) to the node recorded in the vector; the home agent
	// sends a directed snoop to that node instead of broadcasting.
	EntryOwned
)

// String names the kind.
func (k EntryKind) String() string {
	if k == EntryOwned {
		return "owned"
	}
	return "shared"
}

// hitmeEntry is one directory cache entry: a tagged presence vector.
type hitmeEntry struct {
	tag    addr.LineAddr
	vector PresenceVector
	kind   EntryKind
}

// HitMECacheBytes is the capacity of one home agent's directory cache
// (Section IV-D: "with only 14 KiB per home agent these caches are very
// small").
const HitMECacheBytes = 14 * units.KiB

// hitmeEntryBytes is the modeled storage cost of one entry (tag + vector).
const hitmeEntryBytes = 2

// hitmeWays is the associativity of the directory cache.
const hitmeWays = 8

// HitME is one home agent's directory cache. Entries are allocated under
// the AllocateShared policy [5]: only lines that are forwarded between
// caching agents in different NUMA nodes — with the requester outside the
// home node — are entered. A valid entry lets the home agent answer reads
// of shared lines from memory without a snoop broadcast even though the
// in-memory directory says snoop-all.
type HitME struct {
	// entries holds every set's ways in one array allocated with the
	// cache: set i owns entries[i*hitmeWays : (i+1)*hitmeWays], of which
	// the first counts[i] are resident, most recently used first. Clear
	// zeroes the counts, so refilling after a reset allocates nothing.
	entries []hitmeEntry
	counts  []uint8

	hits, misses, allocs, evictions uint64
}

// NewHitME builds an empty directory cache of the standard 14 KiB size.
func NewHitME() *HitME { return NewHitMESized(HitMECacheBytes) }

// NewHitMESized builds a directory cache of an arbitrary capacity (for the
// ablation studies exploring how the cache size moves the Figure 7
// transition). Sizes below one set round up.
func NewHitMESized(bytes int64) *HitME {
	entries := int(bytes) / hitmeEntryBytes
	nsets := entries / hitmeWays
	if nsets < 1 {
		nsets = 1
	}
	return &HitME{entries: make([]hitmeEntry, nsets*hitmeWays), counts: make([]uint8, nsets)}
}

// setOf returns the set index for a line.
func (h *HitME) setOf(l addr.LineAddr) int {
	// Multiplicative hash then modulo; the set count is not a power of
	// two (896 sets), so plain modulo indexing is used.
	x := uint64(l) * 0x9e3779b97f4a7c15
	return int((x >> 32) % uint64(len(h.counts)))
}

// set returns set si's resident entries, MRU first. The slice's capacity
// is the full associativity, so an allocation grows it in place.
func (h *HitME) set(si int) []hitmeEntry {
	base := si * hitmeWays
	return h.entries[base : base+int(h.counts[si]) : base+hitmeWays]
}

// find locates a line: its set index, the set's resident entries, and the
// line's index among them, or -1 when it is absent.
func (h *HitME) find(l addr.LineAddr) (int, []hitmeEntry, int) {
	si := h.setOf(l)
	set := h.set(si)
	for i := range set {
		if set[i].tag == l {
			return si, set, i
		}
	}
	return si, set, -1
}

// Lookup returns the presence vector and kind for a line and whether the
// directory cache holds it. A hit refreshes LRU order.
func (h *HitME) Lookup(l addr.LineAddr) (PresenceVector, EntryKind, bool) {
	_, set, i := h.find(l)
	if i < 0 {
		h.misses++
		return 0, EntryShared, false
	}
	e := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = e
	h.hits++
	return e.vector, e.kind, true
}

// Peek returns the presence vector and kind without touching LRU order or
// counters.
func (h *HitME) Peek(l addr.LineAddr) (PresenceVector, EntryKind, bool) {
	_, set, i := h.find(l)
	if i < 0 {
		return 0, EntryShared, false
	}
	return set[i].vector, set[i].kind, true
}

// Allocate installs or updates the entry for a line. When the set is full
// the LRU entry is evicted; the evicted line is returned so the home agent
// can account for the stale snoop-all state it leaves behind in memory.
func (h *HitME) Allocate(l addr.LineAddr, v PresenceVector, kind EntryKind) (evictedLine addr.LineAddr, evicted bool) {
	si, set, i := h.find(l)
	if i < 0 {
		// A miss takes a free way, or the LRU way when the set is full.
		h.allocs++
		if len(set) < cap(set) {
			set = set[:len(set)+1]
			h.counts[si]++
		} else {
			evictedLine, evicted = set[len(set)-1].tag, true
			h.evictions++
		}
		i = len(set) - 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = hitmeEntry{tag: l, vector: v, kind: kind}
	return evictedLine, evicted
}

// Invalidate drops a line's entry if present.
func (h *HitME) Invalidate(l addr.LineAddr) bool {
	si, set, i := h.find(l)
	if i < 0 {
		return false
	}
	copy(set[i:], set[i+1:])
	h.counts[si]--
	return true
}

// ForEach calls fn for every valid entry. Iteration order is set-major,
// MRU-first; fn must not mutate the directory cache.
func (h *HitME) ForEach(fn func(addr.LineAddr, PresenceVector, EntryKind)) {
	for si := range h.counts {
		for _, e := range h.set(si) {
			fn(e.tag, e.vector, e.kind)
		}
	}
}

// Len returns the number of valid entries.
func (h *HitME) Len() int {
	n := 0
	for _, c := range h.counts {
		n += int(c)
	}
	return n
}

// Capacity returns the maximum number of entries.
func (h *HitME) Capacity() int { return len(h.entries) }

// Clear drops every entry and zeroes counters.
func (h *HitME) Clear() {
	clear(h.counts)
	h.hits, h.misses, h.allocs, h.evictions = 0, 0, 0, 0
}

// Stats returns hit/miss/alloc/eviction counters.
func (h *HitME) Stats() (hits, misses, allocs, evictions uint64) {
	return h.hits, h.misses, h.allocs, h.evictions
}
