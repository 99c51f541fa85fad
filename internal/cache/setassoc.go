package cache

import (
	"fmt"

	"haswellep/internal/addr"
)

// Line is one cache line entry. It packs into 16 bytes and holds no
// pointers, so a cache's line array costs the collector nothing to scan.
type Line struct {
	Addr  addr.LineAddr
	State State
	// CoreValid is the per-core presence bitmask maintained by the
	// inclusive L3 ("core valid bits", Section IV-A / [7]). Unused in
	// L1/L2 caches. Bit i corresponds to the die-local core i.
	CoreValid uint32
}

// set is the header of one associativity set. Its ways live in the
// cache's line array (see Cache.ways), most recently used first.
type set struct {
	// filt is a 64-bit tag-presence filter over the resident ways: bit
	// filterBit(addr) is set for every cached line. A clear bit proves a
	// miss without scanning the ways — the common case on the coherence
	// engine's cross-node probes and the invariant checker's per-line
	// gathers, where most caches do not hold the line. False positives
	// only cost the scan; the filter is recomputed exactly on every
	// removal, so false negatives cannot occur.
	filt uint64
	// n is the number of resident ways.
	n int
}

// filterBit hashes a line address to one of 64 filter bits. The set index
// uses the low address bits, so lines colliding in a set differ in high
// bits; the multiplicative hash folds those in.
func filterBit(l addr.LineAddr) uint64 {
	return 1 << ((uint64(l) * 0x9e3779b97f4a7c15) >> 58)
}

// filterOf computes the presence filter of a set's resident ways.
func filterOf(ways []Line) uint64 {
	f := uint64(0)
	for i := range ways {
		f |= filterBit(ways[i].Addr)
	}
	return f
}

// Geometry describes a cache's size parameters.
type Geometry struct {
	// SizeBytes is the total capacity.
	SizeBytes int64
	// Ways is the associativity.
	Ways int
	// Name labels the cache in errors and dumps (e.g. "L1D", "L2",
	// "L3 slice 4").
	Name string
}

// Sets returns the number of associativity sets.
func (g Geometry) Sets() int {
	lines := g.SizeBytes / addr.LineSize
	return int(lines) / g.Ways
}

// Validate checks the geometry is a usable power-of-two configuration.
func (g Geometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 {
		return fmt.Errorf("cache %s: size and ways must be positive", g.Name)
	}
	if g.SizeBytes%addr.LineSize != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of the line size", g.Name, g.SizeBytes)
	}
	lines := g.SizeBytes / addr.LineSize
	if lines%int64(g.Ways) != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", g.Name, lines, g.Ways)
	}
	sets := lines / int64(g.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", g.Name, sets)
	}
	return nil
}

// Cache is a set-associative cache with true LRU replacement. It tracks
// line presence and MESIF state only; data contents are immaterial to the
// timing behavior being modeled.
//
// Every line lives in one flat array allocated with the cache: set i owns
// lines[i*ways : (i+1)*ways], of which the first sets[i].n are resident.
// The line array and the set headers are allocated once, however many
// sets there are, and neither holds a pointer for the collector to scan.
type Cache struct {
	geom    Geometry
	lines   []Line
	sets    []set
	setMask uint64
	// Stats counters.
	hits, misses, evictions uint64
}

// New builds an empty cache with the given geometry.
func New(g Geometry) *Cache {
	if err := g.Validate(); err != nil {
		panic("cache.New: " + err.Error())
	}
	n := g.Sets()
	return &Cache{
		geom:    g,
		lines:   make([]Line, n*g.Ways),
		sets:    make([]set, n),
		setMask: uint64(n - 1),
	}
}

// Geometry returns the cache's geometry.
func (c *Cache) Geometry() Geometry { return c.geom }

// ways returns set si's resident ways, MRU first. The slice's capacity is
// the full associativity, so a fill grows it in place.
func (c *Cache) ways(si int) []Line {
	base := si * c.geom.Ways
	return c.lines[base : base+c.sets[si].n : base+c.geom.Ways]
}

// find locates a line: its set header, the set's resident ways, and the
// line's way index, or -1 when it is absent. A clear filter bit proves
// absence without scanning the ways.
func (c *Cache) find(l addr.LineAddr) (*set, []Line, int) {
	si := int(uint64(l) & c.setMask)
	s, w := &c.sets[si], c.ways(si)
	if s.filt&filterBit(l) != 0 {
		for i := range w {
			if w[i].Addr == l && w[i].State.Valid() {
				return s, w, i
			}
		}
	}
	return s, w, -1
}

// remove drops way i of a set.
func (s *set) remove(w []Line, i int) {
	copy(w[i:], w[i+1:])
	s.n--
	s.filt = filterOf(w[:s.n])
}

// Lookup returns the line's entry without touching LRU order. The boolean
// reports presence with a valid state.
func (c *Cache) Lookup(l addr.LineAddr) (Line, bool) {
	_, w, i := c.find(l)
	if i < 0 {
		return Line{}, false
	}
	return w[i], true
}

// Contains reports whether the line is present in a valid state.
func (c *Cache) Contains(l addr.LineAddr) bool {
	_, ok := c.Lookup(l)
	return ok
}

// StateOf returns the line's state (Invalid when absent).
func (c *Cache) StateOf(l addr.LineAddr) State {
	w, ok := c.Lookup(l)
	if !ok {
		return Invalid
	}
	return w.State
}

// Touch records a use of the line, moving it to MRU position. It returns
// true if the line was present.
func (c *Cache) Touch(l addr.LineAddr) bool {
	_, w, i := c.find(l)
	if i < 0 {
		c.misses++
		return false
	}
	ln := w[i]
	copy(w[1:i+1], w[:i])
	w[0] = ln
	c.hits++
	return true
}

// Insert installs (or updates) a line in the given state at MRU position.
// If the set is full, the LRU way is evicted and returned with ok=true.
// Inserting over an existing entry replaces its state and yields no victim.
func (c *Cache) Insert(line Line) (victim Line, evicted bool) {
	if !line.State.Valid() {
		panic(fmt.Sprintf("cache %s: inserting invalid line %#x", c.geom.Name, line.Addr))
	}
	s, w, i := c.find(line.Addr)
	if i < 0 {
		// A miss takes a free way, or the LRU way when the set is full.
		if len(w) < cap(w) {
			w = w[:len(w)+1]
			s.n++
			s.filt |= filterBit(line.Addr)
		} else {
			victim, evicted = w[len(w)-1], true
			c.evictions++
		}
		i = len(w) - 1
	}
	copy(w[1:i+1], w[:i])
	w[0] = line
	if evicted {
		s.filt = filterOf(w)
	}
	return victim, evicted
}

// Update rewrites the entry of a present line in place (state and core-valid
// bits) without changing LRU order. It returns false when absent.
func (c *Cache) Update(l addr.LineAddr, fn func(*Line)) bool {
	s, w, i := c.find(l)
	if i < 0 {
		return false
	}
	fn(&w[i])
	if !w[i].State.Valid() {
		// State transitioned to Invalid: drop the way.
		s.remove(w, i)
	}
	return true
}

// Invalidate removes the line, returning its last entry.
func (c *Cache) Invalidate(l addr.LineAddr) (Line, bool) {
	s, w, i := c.find(l)
	if i < 0 {
		return Line{}, false
	}
	ln := w[i]
	s.remove(w, i)
	return ln, true
}

// VictimIfMiss returns the line that would be evicted if l were inserted
// now, without modifying the cache.
func (c *Cache) VictimIfMiss(l addr.LineAddr) (Line, bool) {
	_, w, i := c.find(l)
	if i >= 0 || len(w) < cap(w) {
		return Line{}, false
	}
	return w[len(w)-1], true
}

// Len returns the number of valid lines currently cached.
func (c *Cache) Len() int {
	n := 0
	for i := range c.sets {
		n += c.sets[i].n
	}
	return n
}

// Clear removes every line.
func (c *Cache) Clear() { clear(c.sets) }

// ForEach calls fn for every valid line. Iteration order is set-major,
// MRU-first; fn must not mutate the cache.
func (c *Cache) ForEach(fn func(Line)) {
	for si := range c.sets {
		for _, w := range c.ways(si) {
			fn(w)
		}
	}
}

// Stats returns hit/miss/eviction counters accumulated by Touch/Insert.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() { c.hits, c.misses, c.evictions = 0, 0, 0 }
