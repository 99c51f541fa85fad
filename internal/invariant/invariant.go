// Package invariant is a machine-wide coherence-state validator: it
// inspects every cache, directory and presence vector of a simulated
// machine and reports states its coherence protocol can never legally
// reach. Universal properties (SWMR, inclusivity, directory coverage) are
// graded identically for every protocol; protocol-specific ones (which L3
// states may exist, which states forward) are asked of the machine's
// coherence.Protocol, so the same checker grades MESIF, MESI, and MOESI.
//
// The checked invariants, with the paper sections they encode:
//
//   - Single-writer/multiple-reader (Section IV-A): at most one core
//     system-wide holds a line in a unique state (M or E), and while one
//     does, no other core and no other node's L3 holds any copy.
//   - Legal state set (KindProtocol): an L3 never holds a state its
//     protocol does not mint — no F under MESI/MOESI, no O under
//     MESIF/MESI.
//   - Forwarder uniqueness (Section IV-B): at most one node's L3 holds a
//     line in a forwardable state (the protocol's CanForward set — M, E,
//     and F under MESIF; M and E under MESI; M, E, and O under MOESI),
//     and a unique L3 state (M or E) is system-exclusive across nodes.
//   - L3 inclusivity with core-valid bits (Section IV-A / VI-A): a private
//     copy implies an entry in the node's inclusive L3 with the core's
//     valid bit set, placed in the slice the address hash selects. A set
//     bit without a private copy is NOT a violation — silent clean
//     evictions leave stale bits behind (the paper's 44.4 ns case); it is
//     reported as Stale.
//   - Private-cache sanity: L1D and L2 agree on the state when both hold a
//     line, and cores never hold F or O (the engine grants S/E/M only,
//     under every protocol).
//   - Dirty-line/DRAM consistency (Section IV-A): a shared-like L3 state
//     (S or F) asserts the memory copy is valid, so no core of the node
//     may hold the line dirty or exclusive underneath it. MOESI's O is
//     shared but dirty: its node's cores must likewise hold no unique
//     copy, though memory is allowed to be stale.
//   - In-memory directory (Section IV-C / Table V): the two-bit state must
//     not under-approximate reality (remote unique OR dirty copy =>
//     snoop-all, remote clean copy => at least shared). Over-approximation is the
//     documented silent-eviction staleness and is reported as Stale —
//     unless a valid HitME entry pins snoop-all by design (AllocateShared),
//     which is not reported at all.
//   - HitME directory cache (Section IV-D): entries only exist over
//     snoop-all memory state, owned entries name exactly one remote node,
//     and vectors never name nodes outside the topology. An owned entry
//     whose named node no longer forwards, or a shared vector naming a
//     departed sharer, is the documented staleness the engine repairs on
//     the next touch — reported as Stale.
//
// Check validates the whole machine; CheckLines validates a known working
// set cheaply (the exhaustive sweep test calls it after every transaction),
// and a reusable Checker makes repeated CheckLines calls allocation-free.
// Attach (attach.go) wires a full Check into a mesif.Engine's
// AfterTransaction debug hook; AttachIncremental instead validates only the
// engine's per-transaction dirty set — every line whose cache, directory,
// or HitME standing the transaction touched (see Engine.SetDirtyTracking
// for the contract) — with a periodic full Check every epoch as a safety
// net. Incremental checking is cheap enough that the experiment harness
// (package experiments) leaves it enabled by default.
//
// The checker holds under capacity pressure too: modified L2 victims keep
// the evicting core's valid bit while the (non-inclusive) L1 still holds
// the line (see handleL2Victim in package mesif), so working sets larger
// than the L3 no longer strand private copies. The capacity-pressure sweep
// test exercises exactly that regime.
//
// When a fault injector is attached to the engine (package fault), the
// invariants above double as the recovery acceptance test: after every
// recovered fault the machine must read as legal, and Attach additionally
// reports any injector penalty a transaction failed to drain into its
// latency (KindRecovery).
//
//hsw:tier engine
package invariant

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/machine"
	"haswellep/internal/topology"
)

// Class grades a finding.
type Class int

// Finding classes.
const (
	// ClassViolation is a state the protocol can never legally produce:
	// a real bug (or deliberate corruption) somewhere in the engine.
	ClassViolation Class = iota
	// ClassStale is a documented imprecision the protocol tolerates and
	// repairs lazily: stale core-valid bits after silent evictions
	// (Section VI-A), stale directory state after silent L3 evictions
	// (Table V), and stale HitME entries dropped on the next touch.
	ClassStale
)

// String names the class.
func (c Class) String() string {
	if c == ClassStale {
		return "stale"
	}
	return "violation"
}

// Kind identifies which invariant a finding belongs to.
type Kind int

// Finding kinds.
const (
	// KindAddress: a cached line address outside every node's memory.
	KindAddress Kind = iota
	// KindSWMR: the single-writer/multiple-reader guarantee is broken.
	KindSWMR
	// KindForwarder: more than one forwardable L3 copy, or a unique L3
	// state that is not system-exclusive.
	KindForwarder
	// KindInclusivity: a private copy without an inclusive L3 entry.
	KindInclusivity
	// KindCoreValid: core-valid bit problems (a copy without its bit, a
	// bit naming an impossible core, or — as Stale — a bit without a copy).
	KindCoreValid
	// KindPrivateState: L1/L2 disagreement or a private Forward copy.
	KindPrivateState
	// KindL3State: a shared-like L3 state with a unique private copy
	// underneath (the memory-validity claim would be false).
	KindL3State
	// KindPlacement: an L3 entry in a slice the address hash does not
	// select.
	KindPlacement
	// KindDirectory: in-memory directory state inconsistent with the
	// actual sharers (under-approximation is a violation; documented
	// over-approximation is Stale).
	KindDirectory
	// KindHitME: directory cache entry inconsistent with the in-memory
	// directory or the actual holders.
	KindHitME
	// KindRecovery: a fault-recovery obligation left unsettled — an
	// injector penalty accumulated during a transaction but not drained
	// into its latency (only reported by Attach, which sees the engine).
	KindRecovery
	// KindProtocol: an L3 state the machine's coherence protocol never
	// mints — Forward under MESI/MOESI, Owned under MESIF/MESI. Appended
	// after KindRecovery so serialized finding kinds keep their meaning.
	KindProtocol
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAddress:
		return "address"
	case KindSWMR:
		return "swmr"
	case KindForwarder:
		return "forwarder"
	case KindInclusivity:
		return "inclusivity"
	case KindCoreValid:
		return "core-valid"
	case KindPrivateState:
		return "private-state"
	case KindL3State:
		return "l3-state"
	case KindPlacement:
		return "placement"
	case KindDirectory:
		return "directory"
	case KindHitME:
		return "hitme"
	case KindRecovery:
		return "recovery"
	case KindProtocol:
		return "protocol"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Violation is one checker finding. Despite the type name a finding may be
// graded ClassStale; Hard filters for the genuinely illegal ones.
type Violation struct {
	Kind   Kind
	Class  Class
	Line   addr.LineAddr
	Detail string
}

// String formats the finding for logs and test output.
func (v Violation) String() string {
	return fmt.Sprintf("%v[%v] line %#x: %s", v.Class, v.Kind, v.Line.Addr(), v.Detail)
}

// Hard returns only the ClassViolation findings.
func Hard(vs []Violation) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Class == ClassViolation {
			out = append(out, v)
		}
	}
	return out
}

// Check validates the entire machine: every line found in any cache,
// directory, or directory cache is checked, plus a cross-agent scan for
// directory entries filed under the wrong home agent. It is the one-shot
// form of Checker.CheckAll; callers that Check repeatedly (the epoch hook
// of AttachIncremental) keep a Checker so the sweep buffers are reused.
func Check(m *machine.Machine) []Violation {
	return NewChecker(m).CheckAll()
}

// CheckLines validates the given lines only. It is the cheap form for
// callers that know the working set (the exhaustive sweep runs it after
// every transaction); it skips the cross-agent filing scan. Callers that
// check after every transaction should keep a Checker instead, which
// reuses its scratch buffers across calls.
func CheckLines(m *machine.Machine, lines []addr.LineAddr) []Violation {
	return NewChecker(m).CheckLines(lines)
}

// NewChecker builds a reusable per-line validator for the machine: the
// per-line scratch buffers are allocated once, so repeated CheckLines calls
// (the per-transaction incremental mode of AttachIncremental) are
// allocation-free once the findings buffer has grown to its steady-state
// size. A Checker is not safe for concurrent use.
func NewChecker(m *machine.Machine) *Checker {
	return &Checker{
		m:        m,
		coreSt:   make([]cache.State, m.Topo.Cores()),
		coreList: make([]int, 0, m.Topo.Cores()),
		l3:       make([]cache.Line, m.Topo.Nodes()),
		l3ok:     make([]bool, m.Topo.Nodes()),
	}
}

// LeanStale makes the checker record ClassStale findings with an empty
// Detail string. Stale findings are documented imprecision — silent-eviction
// residue the protocol repairs lazily — and the always-on consumers
// (invariant.Recorder, the bench scenarios) only count them, yet composing
// their details dominates checking cost on capacity-loaded machines where
// stranded core-valid bits are everywhere. Hard-violation details are
// always composed. Returns the checker for chaining.
func (c *Checker) LeanStale() *Checker {
	c.lean = true
	return c
}

// NewFastChecker builds the triage-fidelity validator the always-on harness
// hook runs: per line it inspects only the responsible L3 slice of each
// node (so an entry misplaced by the address hash is not searched for),
// walks private caches through the L3 entries' core-valid bits instead of
// scanning every core (so a private copy stranded without its valid bit or
// L3 entry is invisible), and records stale findings without composing
// their detail strings. Every violation class that cross-node coherence,
// the directory, and the HitME cache can produce — SWMR, forwarder
// uniqueness, L3/private state disagreement, directory under-approximation
// — is still checked exactly. The three blind spots are exactly what a
// periodic or end-of-run full Check (which always uses full fidelity)
// exists to cover.
func NewFastChecker(m *machine.Machine) *Checker {
	c := NewChecker(m)
	c.fast = true
	c.lean = true
	return c
}

// CheckLines validates the given lines, reusing the Checker's scratch
// buffers. The returned slice is valid until the next CheckLines call on
// the same Checker (the findings buffer is reused; nil when clean).
func (c *Checker) CheckLines(lines []addr.LineAddr) []Violation {
	c.out = c.out[:0]
	for _, l := range lines {
		c.checkLine(l)
	}
	if len(c.out) == 0 {
		return nil
	}
	return c.out
}

// CheckAll validates the entire machine in one sweep: every line present
// in any cache, directory, or directory cache is validated, then the
// cross-agent filing scan runs. Instead of collecting the distinct line
// set into a map and re-looking every line up in every structure (O(lines
// × structures)), the sweep gathers one flat (line, holder) tuple per
// resident entry, radix-sorts the tuples by line (stable, so per-line
// tuple order is the gather order), and walks each line's group through
// the same validation body CheckLines uses. Findings are byte-identical
// to per-line checking by construction: the gather order — L3 slices
// ascending, then per-core L1/L2 pairs ascending, then directories and
// HitME — matches the lookup order of the per-line gather, because node
// slice and core numbering is node-major ascending (topology.System).
//
// The returned slice is valid until the next Check/CheckLines call on the
// same Checker (nil when clean). The sweep buffers are retained, so
// repeated CheckAll calls on a capacity-loaded machine allocate only
// while the machine's footprint is still growing.
func (c *Checker) CheckAll() []Violation {
	c.out = c.out[:0]
	c.gatherMachine()
	c.sortEnts()
	c.walk()
	c.agentFiling()
	if len(c.out) == 0 {
		return nil
	}
	return c.out
}

// sweepEnt is one (line, holder) tuple of the full-machine sweep: an L3,
// L1, or L2 entry with its state, or a bare directory/HitME line (their
// contents are re-read through the home agent during validation; the tuple
// only forces the line into the sweep).
type sweepEnt struct {
	line addr.LineAddr
	cv   uint32 // L3 core-valid bits
	st   cache.State
	kind uint8  // entL3..entHitME
	idx  uint16 // slice id (entL3) or core id (entL1/entL2)
}

// Holder kinds, in per-line validation order: the stable sort keeps same-
// line tuples in gather order, and the gather appends in this sequence.
const (
	entL3 = iota
	entL1
	entL2
	entDir
	entHitME
)

// gatherMachine fills c.ents with one tuple per resident entry, in the
// order the per-line gather would visit holders: slices ascending, then
// cores ascending (L1 before L2), then directories and HitME caches.
func (c *Checker) gatherMachine() {
	m := c.m
	c.ents = c.ents[:0]
	for s := range m.L3 {
		si := uint16(s)
		m.L3[s].ForEach(func(ln cache.Line) {
			c.ents = append(c.ents, sweepEnt{line: ln.Addr, cv: ln.CoreValid, st: ln.State, kind: entL3, idx: si})
		})
	}
	for i := range m.Cores {
		ci := uint16(i)
		m.Cores[i].L1D.ForEach(func(ln cache.Line) {
			c.ents = append(c.ents, sweepEnt{line: ln.Addr, st: ln.State, kind: entL1, idx: ci})
		})
		m.Cores[i].L2.ForEach(func(ln cache.Line) {
			c.ents = append(c.ents, sweepEnt{line: ln.Addr, st: ln.State, kind: entL2, idx: ci})
		})
	}
	for _, ha := range m.HAs {
		if ha.Dir != nil {
			ha.Dir.ForEachUnordered(func(l addr.LineAddr, _ directory.MemState) {
				c.ents = append(c.ents, sweepEnt{line: l, kind: entDir})
			})
		}
		if ha.HitME != nil {
			ha.HitME.ForEach(func(l addr.LineAddr, _ directory.PresenceVector, _ directory.EntryKind) {
				c.ents = append(c.ents, sweepEnt{line: l, kind: entHitME})
			})
		}
	}
}

// sortEnts stable-radix-sorts c.ents by line address (LSD, byte passes,
// uniform passes skipped — line addresses span well under 64 meaningful
// bits). Stability preserves the gather order within each line's group,
// which is what makes the walk's finding order identical to per-line
// checking.
func (c *Checker) sortEnts() {
	n := len(c.ents)
	if n < 2 {
		return
	}
	if cap(c.alt) < n {
		c.alt = make([]sweepEnt, n)
	}
	a, b := c.ents, c.alt[:n]
	var cnt [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range cnt {
			cnt[i] = 0
		}
		for i := range a {
			cnt[byte(a[i].line>>shift)]++
		}
		if cnt[byte(a[0].line>>shift)] == n {
			continue // all keys share this byte; the pass is a no-op
		}
		sum := 0
		for i := range cnt {
			k := cnt[i]
			cnt[i] = sum
			sum += k
		}
		for i := range a {
			k := byte(a[i].line >> shift)
			b[cnt[k]] = a[i]
			cnt[k]++
		}
		a, b = b, a
	}
	c.ents, c.alt = a, b
}

// walk validates each line group of the sorted sweep: the group's tuples
// replay the per-line gather (placement and private-state findings
// included), then the shared validation body runs.
func (c *Checker) walk() {
	ents := c.ents
	for i := 0; i < len(ents); {
		l := ents[i].line
		j := i
		for ; j < len(ents) && ents[j].line == l && ents[j].kind == entL3; j++ {
			c.noteL3(l, topology.SliceID(ents[j].idx),
				cache.Line{Addr: l, State: ents[j].st, CoreValid: ents[j].cv})
		}
		for j < len(ents) && ents[j].line == l && (ents[j].kind == entL1 || ents[j].kind == entL2) {
			core := int(ents[j].idx)
			var s1, s2 cache.State
			if ents[j].kind == entL1 {
				s1 = ents[j].st
				j++
				if j < len(ents) && ents[j].line == l && ents[j].kind == entL2 && int(ents[j].idx) == core {
					s2 = ents[j].st
					j++
				}
			} else {
				s2 = ents[j].st
				j++
			}
			c.noteCore(l, core, s1, s2)
		}
		for ; j < len(ents) && ents[j].line == l; j++ {
			// Directory/HitME tuples only pull the line into the sweep;
			// validateLine reads their contents through the home agent.
		}
		c.validateLine(l)
		c.resetScratch()
		i = j
	}
}

// agentFiling verifies every directory and HitME entry sits on the home
// agent the address maps to (only reachable by corruption, since the
// engine always routes through Machine.HA). Findings append to c.out.
func (c *Checker) agentFiling() {
	m := c.m
	for id, ha := range m.HAs {
		agent := topology.AgentID(id)
		misfiled := func(l addr.LineAddr) (topology.AgentID, bool) {
			if _, ok := m.HomeNodeOf(l); !ok {
				return 0, false // flagged as KindAddress by the line check
			}
			want := m.HomeAgentOf(l)
			return want, want != agent
		}
		if ha.Dir != nil {
			// Detect on the unordered walk (no per-epoch re-sort of the
			// whole directory); emit findings — corruption-only — on the
			// ordered one so their order stays deterministic.
			bad := 0
			ha.Dir.ForEachUnordered(func(l addr.LineAddr, _ directory.MemState) {
				if _, b := misfiled(l); b {
					bad++
				}
			})
			if bad > 0 {
				ha.Dir.ForEach(func(l addr.LineAddr, s directory.MemState) {
					if want, b := misfiled(l); b {
						c.add(ClassViolation, KindDirectory, l,
							"directory entry (%v) filed on home agent %d, but the address maps to agent %d", s, agent, want)
					}
				})
			}
		}
		if ha.HitME != nil {
			ha.HitME.ForEach(func(l addr.LineAddr, _ directory.PresenceVector, _ directory.EntryKind) {
				if want, bad := misfiled(l); bad {
					c.add(ClassViolation, KindHitME, l,
						"HitME entry filed on home agent %d, but the address maps to agent %d", agent, want)
				}
			})
		}
	}
}

// Checker accumulates findings; see NewChecker for the reusable form,
// NewFastChecker for the reduced-fidelity form the harness hook runs, and
// LeanStale for detail-free stale findings.
type Checker struct {
	m   *machine.Machine
	out []Violation
	// fast selects triage fidelity: responsible-slice L3 lookups only,
	// core scans driven by the L3 core-valid bits. See NewFastChecker for
	// the exact blind spots.
	fast bool
	// lean elides ClassStale detail strings; see LeanStale.
	lean bool
	// Per-line scratch, empty/Invalid between lines (resetScratch):
	// coreSt holds each core's strongest private state, coreList the
	// cores holding a valid copy, l3/l3ok each node's L3 entry.
	coreSt   []cache.State
	coreList []int
	l3       []cache.Line
	l3ok     []bool
	// Full-sweep scratch (CheckAll): the tuple buffer and its radix-sort
	// double.
	ents []sweepEnt
	alt  []sweepEnt
}

// add appends a finding, composing its detail eagerly. Stale findings on
// hot paths go through the non-variadic stale helpers instead, so lean
// checkers skip both the fmt work and the argument boxing.
func (c *Checker) add(class Class, kind Kind, l addr.LineAddr, format string, args ...interface{}) {
	c.out = append(c.out, Violation{Kind: kind, Class: class, Line: l, Detail: fmt.Sprintf(format, args...)})
}

// push appends a detail-free finding (the lean-stale form).
func (c *Checker) push(class Class, kind Kind, l addr.LineAddr) {
	c.out = append(c.out, Violation{Kind: kind, Class: class, Line: l})
}

// resetScratch restores the per-line scratch invariant (coreSt all
// Invalid, coreList empty, l3ok all false) after a line is validated.
func (c *Checker) resetScratch() {
	for _, i := range c.coreList {
		c.coreSt[i] = cache.Invalid
	}
	c.coreList = c.coreList[:0]
	for n := range c.l3ok {
		c.l3ok[n] = false
	}
}

// checkLine runs every per-line invariant: a lookup-driven gather of the
// line's holders followed by the shared validation body.
func (c *Checker) checkLine(l addr.LineAddr) {
	c.gatherLine(l)
	c.validateLine(l)
	c.resetScratch()
}

// noteL3 files one L3 entry into the per-line scratch, flagging entries
// the address hash would not have placed in that slice.
func (c *Checker) noteL3(l addr.LineAddr, sl topology.SliceID, ln cache.Line) {
	m := c.m
	n := m.Topo.NodeOfSlice(sl)
	if resp := m.CAForNode(n, l); sl != resp {
		c.add(ClassViolation, KindPlacement, l,
			"node %d caches the line in slice %d, but the address hash selects slice %d", n, sl, resp)
		return
	}
	c.l3[n], c.l3ok[n] = ln, true
}

// noteCore files one core's L1D/L2 states into the per-line scratch; it
// checks L1/L2 agreement and that cores never hold Forward or Owned.
func (c *Checker) noteCore(l addr.LineAddr, i int, s1, s2 cache.State) {
	if s1.Valid() && s2.Valid() && s1 != s2 {
		c.add(ClassViolation, KindPrivateState, l,
			"core %d holds the line as %v in L1D but %v in L2", i, s1, s2)
	}
	// The innermost valid level, as HighestLevelState would return it
	// (inlined: this runs for every core on every checked line).
	st := s1
	if !st.Valid() {
		st = s2
	}
	if st == cache.Forward || st == cache.Owned {
		c.add(ClassViolation, KindPrivateState, l,
			"core %d holds the line in state %v; the engine grants only S/E/M to private caches", i, st)
	}
	if st.Valid() && !c.coreSt[i].Valid() {
		c.coreList = append(c.coreList, i)
	}
	c.coreSt[i] = st
}

// scanCore looks up one core's private caches and files the result.
func (c *Checker) scanCore(l addr.LineAddr, i int) {
	cc := c.m.Cores[i]
	c.noteCore(l, i, cc.L1D.StateOf(l), cc.L2.StateOf(l))
}

// gatherLine fills the per-line scratch by cache lookup.
func (c *Checker) gatherLine(l addr.LineAddr) {
	m := c.m
	topo := m.Topo
	nCores := topo.Cores()
	nNodes := topo.Nodes()
	perDie := topo.Die.Cores()

	// Gather per-node L3 entries; entries must sit in the responsible
	// slice (the address-hash home of the line within the node). The fast
	// checker asks only the responsible slice, so a misplaced entry is
	// simply not found; the full checker scans every slice of the node to
	// flag the misplacement itself.
	for n := 0; n < nNodes; n++ {
		node := topology.NodeID(n)
		if c.fast {
			c.l3[n], c.l3ok[n] = m.L3[m.CAForNode(node, l)].Lookup(l)
			continue
		}
		for _, sl := range topo.SlicesOfNode(node) {
			ln, ok := m.L3[sl].Lookup(l)
			if !ok {
				continue
			}
			c.noteL3(l, sl, ln)
		}
	}

	// Gather the strongest private state per core. The fast checker
	// visits only the cores the L3 entries' valid bits name (a copy held
	// without its bit — itself a violation — is invisible to it); the
	// full checker scans every core in the system.
	if c.fast {
		for n := 0; n < nNodes; n++ {
			if !c.l3ok[n] {
				continue
			}
			sock := topo.SocketOfNode(topology.NodeID(n))
			bits := c.l3[n].CoreValid
			for bit := 0; bits != 0; bit++ {
				if bits&(1<<uint(bit)) == 0 {
					continue
				}
				bits &^= 1 << uint(bit)
				if bit >= perDie {
					continue // flagged by the L3-side bit check below
				}
				if core := sock*perDie + bit; core < nCores {
					c.scanCore(l, core)
				}
			}
		}
	} else {
		for i := 0; i < nCores; i++ {
			c.scanCore(l, i)
		}
	}
}

// sortCoreList restores ascending core order. The lookup gather and the
// sweep walk discover cores ascending already (O(k) pass); only the fast
// gather's L3-bit order can be non-monotonic, and only under corruption.
func (c *Checker) sortCoreList() {
	a := c.coreList
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// validateLine runs the invariants over the gathered per-line scratch.
// Loops over "every core" are driven by coreList (the cores holding a
// valid copy, ascending — identical findings, since the skipped cores are
// Invalid and every such loop ignores invalid states).
func (c *Checker) validateLine(l addr.LineAddr) {
	m := c.m
	topo := m.Topo
	nNodes := topo.Nodes()
	perDie := topo.Die.Cores()
	l3, l3ok, coreSt := c.l3, c.l3ok, c.coreSt
	c.sortCoreList()
	coreList := c.coreList

	// SWMR: at most one core in a unique state, and then no other copy
	// anywhere in the system.
	uniqueCore := -1
	for _, i := range coreList {
		if st := coreSt[i]; st.Unique() {
			if uniqueCore >= 0 {
				c.add(ClassViolation, KindSWMR, l,
					"cores %d (%v) and %d (%v) both hold the line in a unique state", uniqueCore, coreSt[uniqueCore], i, st)
			} else {
				uniqueCore = i
			}
		}
	}
	if uniqueCore >= 0 {
		for _, i := range coreList {
			if st := coreSt[i]; i != uniqueCore && st.Valid() {
				c.add(ClassViolation, KindSWMR, l,
					"core %d holds the line (%v) while core %d holds it in a unique state (%v)", i, st, uniqueCore, coreSt[uniqueCore])
			}
		}
		owner := topo.NodeOfCore(topology.CoreID(uniqueCore))
		for n := 0; n < nNodes; n++ {
			if l3ok[n] && topology.NodeID(n) != owner {
				c.add(ClassViolation, KindSWMR, l,
					"node %d's L3 caches the line (%v) while core %d of node %d holds it in a unique state (%v)",
					n, l3[n].State, uniqueCore, owner, coreSt[uniqueCore])
			}
		}
	}

	// Legal state set, forwarder uniqueness across L3s, and
	// system-exclusivity of unique L3 states. Which states may exist and
	// which ones forward is the active protocol's call: no F is ever
	// minted under MESI/MOESI, no O outside MOESI, and MOESI's single
	// Owned copy is graded exactly like MESIF's single Forward copy.
	proto := m.Proto
	fwdNode, uniqNode := -1, -1
	for n := 0; n < nNodes; n++ {
		if !l3ok[n] {
			continue
		}
		if !proto.LegalL3(l3[n].State) {
			c.add(ClassViolation, KindProtocol, l,
				"node %d's L3 holds the line in state %v, which the %s protocol never mints", n, l3[n].State, proto.ID())
		}
		if proto.CanForward(l3[n].State) {
			if fwdNode >= 0 {
				c.add(ClassViolation, KindForwarder, l,
					"nodes %d (%v) and %d (%v) both hold a forwardable L3 copy", fwdNode, l3[fwdNode].State, n, l3[n].State)
			} else {
				fwdNode = n
			}
		}
		if l3[n].State.Unique() {
			uniqNode = n
		}
	}
	if uniqNode >= 0 {
		for n := 0; n < nNodes; n++ {
			if l3ok[n] && n != uniqNode {
				c.add(ClassViolation, KindForwarder, l,
					"node %d's L3 caches the line (%v) while node %d holds it in a unique state (%v)", n, l3[n].State, uniqNode, l3[uniqNode].State)
			}
		}
	}

	// Inclusivity and core-valid bits, from the core side: a private copy
	// needs an L3 entry with the core's bit set.
	for _, i := range coreList {
		st := coreSt[i]
		n := topo.NodeOfCore(topology.CoreID(i))
		if !l3ok[n] {
			c.add(ClassViolation, KindInclusivity, l,
				"core %d holds the line (%v) but node %d's inclusive L3 has no entry", i, st, n)
			continue
		}
		if bit := topo.LocalCore(topology.CoreID(i)); l3[n].CoreValid&(1<<uint(bit)) == 0 {
			c.add(ClassViolation, KindCoreValid, l,
				"core %d holds the line (%v) but its core-valid bit in node %d's L3 is clear", i, st, n)
		}
	}

	// Core-valid bits from the L3 side: bits must name cores of the
	// entry's own node; a set bit without a private copy is the paper's
	// documented silent-eviction staleness (Section VI-A).
	for n := 0; n < nNodes; n++ {
		if !l3ok[n] {
			continue
		}
		sock := topo.SocketOfNode(topology.NodeID(n))
		bits := l3[n].CoreValid
		for bit := 0; bits != 0; bit++ {
			if bits&(1<<uint(bit)) == 0 {
				continue
			}
			bits &^= 1 << uint(bit)
			if bit >= perDie {
				c.add(ClassViolation, KindCoreValid, l,
					"node %d's L3 entry sets core-valid bit %d, beyond the %d-core die", n, bit, perDie)
				continue
			}
			core := topology.CoreID(sock*perDie + bit)
			if topo.NodeOfCore(core) != topology.NodeID(n) {
				c.add(ClassViolation, KindCoreValid, l,
					"node %d's L3 entry sets core-valid bit %d, but core %d belongs to node %d", n, bit, core, topo.NodeOfCore(core))
				continue
			}
			if !coreSt[core].Valid() {
				if c.lean {
					c.push(ClassStale, KindCoreValid, l)
				} else {
					c.add(ClassStale, KindCoreValid, l,
						"node %d's L3 sets core-valid bit %d but core %d holds no copy (silent eviction, Section VI-A)", n, bit, core)
				}
			}
		}
	}

	// Dirty-line/DRAM and MOESI-O residue both fire only when some core
	// holds a unique copy; uniqueCore >= 0 iff one exists, so healthy
	// shared lines skip both scans.
	if uniqueCore >= 0 {
		// A shared-like L3 state claims the memory copy is valid, which a
		// unique private copy would falsify.
		for n := 0; n < nNodes; n++ {
			if !l3ok[n] || !l3[n].State.SharedLike() {
				continue
			}
			for _, core := range topo.CoresOfNode(topology.NodeID(n)) {
				if coreSt[core].Unique() {
					c.add(ClassViolation, KindL3State, l,
						"node %d's L3 holds the line %v (memory-valid) while its core %d holds it %v", n, l3[n].State, core, coreSt[core])
				}
			}
		}
		// MOESI residue: an Owned L3 copy is shared with other nodes, so
		// its own cores must not hold the line in a unique state — a core
		// write would have had to invalidate the other sharers and retake M.
		for n := 0; n < nNodes; n++ {
			if !l3ok[n] || l3[n].State != cache.Owned {
				continue
			}
			for _, core := range topo.CoresOfNode(topology.NodeID(n)) {
				if coreSt[core].Unique() {
					c.add(ClassViolation, KindL3State, l,
						"node %d's L3 holds the line O (shared dirty) while its core %d holds it %v", n, core, coreSt[core])
				}
			}
		}
	}

	// Directory invariants need a valid home.
	home, ok := m.HomeNodeOf(l)
	if !ok {
		c.add(ClassViolation, KindAddress, l, "cached line lies outside every node's memory")
		return
	}
	ha := m.HA(l)
	if ha.Dir == nil {
		return
	}

	// What the directory must cover: any copy outside the home node. The
	// detail — the first remote L3 holder, overridden by the last unique
	// remote core — is composed lazily, only if a violation fires.
	remoteClean, remoteUnique := false, false
	remNode, remCore := -1, -1
	for n := 0; n < nNodes; n++ {
		if topology.NodeID(n) == home || !l3ok[n] {
			continue
		}
		// A remote dirty copy (M, or MOESI's O) means memory is stale and
		// every access must snoop; Dirty ⊆ Unique under MESIF/MESI, so
		// this is the same set there.
		if l3[n].State.Unique() || l3[n].State.Dirty() {
			remoteUnique = true
		} else {
			remoteClean = true
		}
		if remNode < 0 {
			remNode = n
		}
	}
	for _, i := range coreList {
		st := coreSt[i]
		if !st.Valid() || topo.NodeOfCore(topology.CoreID(i)) == home {
			continue
		}
		if st.Unique() {
			remoteUnique = true
			remCore = i
		}
	}
	required := directory.RemoteInvalid
	switch {
	case remoteUnique:
		required = directory.SnoopAll
	case remoteClean:
		required = directory.SharedRemote
	}
	got := ha.Dir.State(l)
	_, _, hitmeValid := peekHitME(ha, l)
	switch {
	case got < required:
		detail := ""
		if remCore >= 0 {
			detail = fmt.Sprintf("core %d holds it %v", remCore, coreSt[remCore])
		} else if remNode >= 0 {
			detail = fmt.Sprintf("node %d holds it %v", remNode, l3[remNode].State)
		}
		c.add(ClassViolation, KindDirectory, l,
			"in-memory directory reads %v but %s (requires at least %v)", got, detail, required)
	case got > required && !hitmeValid:
		// Documented staleness: silent L3 evictions never write the
		// directory back (Table V). With a valid HitME entry the
		// snoop-all state is pinned by AllocateShared and not reported.
		if c.lean {
			c.push(ClassStale, KindDirectory, l)
		} else {
			c.add(ClassStale, KindDirectory, l,
				"in-memory directory reads %v though only %v coverage is needed (silent-eviction staleness, Table V)", got, required)
		}
	}

	// HitME directory cache invariants.
	if ha.HitME == nil {
		return
	}
	v, kind, okEntry := ha.HitME.Peek(l)
	if !okEntry {
		return
	}
	if got != directory.SnoopAll {
		c.add(ClassViolation, KindHitME, l,
			"HitME entry present while the in-memory directory reads %v; AllocateShared pins snoop-all", got)
	}
	if v == 0 {
		c.add(ClassViolation, KindHitME, l, "HitME entry has an empty presence vector")
		return
	}
	for n := nNodes; n < 8; n++ {
		if v.Has(n) {
			c.add(ClassViolation, KindHitME, l,
				"HitME presence vector names node %d, beyond the %d-node topology", n, nNodes)
		}
	}
	if kind == directory.EntryOwned {
		if owners := v.Count(); owners != 1 {
			c.add(ClassViolation, KindHitME, l,
				"owned HitME entry names %d nodes; directed snoops need exactly one owner", owners)
			return
		}
		owner := v.Sole()
		if topology.NodeID(owner) == home {
			c.add(ClassViolation, KindHitME, l,
				"owned HitME entry names the home node %d; only remote owners are tracked", owner)
		} else if owner < nNodes && !(l3ok[owner] && proto.CanForward(l3[owner].State)) {
			if c.lean {
				c.push(ClassStale, KindHitME, l)
			} else {
				c.add(ClassStale, KindHitME, l,
					"owned HitME entry names node %d, which no longer holds a forwardable copy (dropped on next touch)", owner)
			}
		}
		return
	}
	for n := 0; n < nNodes; n++ {
		if v.Has(n) && !l3ok[n] {
			if c.lean {
				c.push(ClassStale, KindHitME, l)
			} else {
				c.add(ClassStale, KindHitME, l,
					"shared HitME vector names node %d, which no longer caches the line", n)
			}
		}
	}
}

// peekHitME reports whether the home agent's directory cache holds a valid
// entry for the line, without touching LRU order or counters.
func peekHitME(ha *machine.HomeAgent, l addr.LineAddr) (directory.PresenceVector, directory.EntryKind, bool) {
	if ha.HitME == nil {
		return 0, directory.EntryShared, false
	}
	return ha.HitME.Peek(l)
}
