// Package trace is the failure flight recorder of the simulator: a bounded
// ring recorder that logs every engine transaction — together with the
// allocations, machine resets, and deliberate state corruptions that shape
// the run — compactly enough to stay attached for entire sweeps, and a
// self-contained, versioned repro bundle format that freezes a failing run
// to disk (machine configuration, snoop mode, fault plan, op trace, and the
// triggering invariant finding).
//
// Determinism is the whole point: the engine is single-threaded and the
// fault injector draws from one seeded PRNG stream in transaction order, so
// re-executing a recorded event sequence against a freshly built machine
// reproduces every latency, counter, and state transition byte-identically.
// Package replay does exactly that, and shrinks bundles to minimal repros.
//
// The recorder attaches to mesif.Engine.AfterAccess (which fires before
// AfterTransaction, so an invariant checker chained there observes a trace
// that already contains the violating transaction), machine.Machine.OnAlloc,
// and machine.Machine.OnReset. With no recorder attached the hooks are nil
// and the transaction path pays nothing.
//
// This package deliberately does not import package invariant — the
// invariant package (and its internal test rigs) import trace to write
// bundles, so findings cross the boundary as the protocol-independent
// Finding type here.
//
//hsw:tier engine
package trace

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/coherence"
	"haswellep/internal/directory"
	"haswellep/internal/fault"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// EventKind classifies one recorded event.
type EventKind int

// Event kinds. The Corrupt* kinds are deliberate, replayable state
// corruptions applied through the machine's exported mutators — the test
// rigs use them to manufacture hard invariant violations on demand (the
// healthy engine never produces one), and a replay re-applies them at the
// same position in the stream.
const (
	// EvOp is one engine transaction (Engine.Do / Read / Write / Flush).
	EvOp EventKind = iota
	// EvAlloc is one Machine.AllocOnNode call. Allocation bases are a
	// pure function of the per-node allocation history, so replaying the
	// allocs in order reproduces every region; Base double-checks it.
	EvAlloc
	// EvReset is one Machine.Reset call (allocations survive it).
	EvReset
	// EvCorruptDir overwrites a line's in-memory directory entry at its
	// home agent with State (a directory.MemState).
	EvCorruptDir
	// EvCorruptL3 rewrites the line's state in a node's L3 slice to
	// State (a cache.State); Invalid silently drops the entry.
	EvCorruptL3
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvOp:
		return "op"
	case EvAlloc:
		return "alloc"
	case EvReset:
		return "reset"
	case EvCorruptDir:
		return "corrupt-dir"
	case EvCorruptL3:
		return "corrupt-l3"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one recorded event, compact enough to buffer by the million
// (~72 bytes). Field use by kind:
//
//	EvOp:         Op, Core, Line, WS (engine working set during the op),
//	              Seq (injector transaction seq after the op; 0 = no injector)
//	EvAlloc:      Node, Size (requested bytes), Base (region base handed out)
//	EvReset:      —
//	EvCorruptDir: Line, State (directory.MemState)
//	EvCorruptL3:  Node, Line, State (cache.State)
type Event struct {
	Kind  EventKind       `json:"k"`
	Op    mesif.Op        `json:"op,omitempty"`
	Core  topology.CoreID `json:"c,omitempty"`
	Line  addr.LineAddr   `json:"l,omitempty"`
	WS    int64           `json:"w,omitempty"`
	Seq   uint64          `json:"q,omitempty"`
	Node  topology.NodeID `json:"n,omitempty"`
	Size  int64           `json:"s,omitempty"`
	Base  addr.PAddr      `json:"b,omitempty"`
	State int             `json:"st,omitempty"`
}

// Digest summarizes a recorded (or replayed) run in fixed-width fields, so
// two digests from the same event stream compare with ==. Latency is summed
// in integer picoseconds (units.Time), making the comparison exact, not
// approximate. The digest is accumulated by the recorder itself and is
// therefore immune to Engine.ResetStats calls mid-run.
type Digest struct {
	Ops       uint64                   `json:"ops"`
	Reads     uint64                   `json:"reads"`
	Writes    uint64                   `json:"writes"`
	Flushes   uint64                   `json:"flushes"`
	BySource  [mesif.NumSources]uint64 `json:"by_source"`
	Broadcast uint64                   `json:"broadcasts"`
	DirHits   uint64                   `json:"dir_hits"`
	LatencyPs units.Time               `json:"latency_ps"`
	Fault     fault.Counters           `json:"fault"`
	// Protocol is the coherence protocol the digest was recorded under,
	// normalized like Spec.Protocol (MESIF reads as ""). Folding it into
	// the digest makes a replay under the wrong protocol fail digest
	// equality even when the counters happen to agree.
	Protocol string `json:"protocol,omitempty"`
}

// Finding is the bundle's protocol-independent form of one invariant
// violation: the numeric kind/class (matching invariant.Kind and
// invariant.Class) plus their names for human readers, the line, and the
// transaction that exposed it. Two findings denote the same failure when
// Kind, Class, and Line agree — Matches implements exactly that, the
// replay acceptance criterion.
type Finding struct {
	Kind      int           `json:"kind"`
	KindName  string        `json:"kind_name"`
	Class     int           `json:"class"`
	ClassName string        `json:"class_name"`
	Line      addr.LineAddr `json:"line"`
	Detail    string        `json:"detail,omitempty"`
	Op        int           `json:"op"`
	Core      int           `json:"core"`
}

// Matches reports whether two findings denote the same failure: identical
// (kind, class, line). Detail, op, and core are diagnostic only — a replay
// with a tighter checker cadence may detect the same damage one
// transaction earlier.
func (f Finding) Matches(g Finding) bool {
	return f.Kind == g.Kind && f.Class == g.Class && f.Line == g.Line
}

// String formats the finding for logs.
func (f Finding) String() string {
	return fmt.Sprintf("%s/%s line %#x: %s", f.KindName, f.ClassName, uint64(f.Line), f.Detail)
}

// DefaultCapacity is the ring capacity Attach uses when Options.Capacity
// is 0: a million events (~72 MiB when full) — enough for every
// verification workload in this repo; capacity-scale experiment sweeps
// overflow it, in which case the bundle is marked truncated and replay
// refuses it (see Bundle.Truncated).
const DefaultCapacity = 1 << 20

// Options tunes Attach.
type Options struct {
	// Capacity bounds the ring; 0 means DefaultCapacity.
	Capacity int
}

// Recorder is the flight recorder for one engine. It is single-threaded,
// like the engine it observes.
type Recorder struct {
	e *mesif.Engine
	m *machine.Machine

	cap      int
	buf      []Event // circular once len == cap
	start    int     // index of the oldest event when wrapped
	total    uint64  // events appended since the baseline
	overflow uint64  // events dropped from the ring's head
	baseline []Event // preamble restored by ResetToBaseline

	// flowSolves logs multi-flow bandwidth-solver invocations (see
	// flowsolve.go); they ride in bundles next to the event stream.
	flowSolves        []FlowSolve
	flowSolveOverflow uint64

	digest Digest

	prevAccess func(mesif.Op, topology.CoreID, addr.LineAddr, mesif.Access)
	prevAlloc  func(topology.NodeID, int64, addr.Region)
	prevReset  func()
	detached   bool
}

// Attach installs a flight recorder on the engine (and its machine). The
// recorder chains to previously installed AfterAccess/OnAlloc/OnReset
// hooks; Detach restores them — when hooks are stacked, detach in LIFO
// order.
func Attach(e *mesif.Engine, o Options) *Recorder {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	r := &Recorder{e: e, m: e.M, cap: o.Capacity}
	r.prevAccess = e.AfterAccess
	e.AfterAccess = func(op mesif.Op, core topology.CoreID, l addr.LineAddr, a mesif.Access) {
		r.onAccess(op, core, l, a)
		if r.prevAccess != nil {
			r.prevAccess(op, core, l, a)
		}
	}
	r.prevAlloc = r.m.OnAlloc
	r.m.OnAlloc = func(node topology.NodeID, size int64, reg addr.Region) {
		r.append(Event{Kind: EvAlloc, Node: node, Size: size, Base: reg.Base})
		if r.prevAlloc != nil {
			r.prevAlloc(node, size, reg)
		}
	}
	r.prevReset = r.m.OnReset
	r.m.OnReset = func() {
		r.append(Event{Kind: EvReset})
		if r.prevReset != nil {
			r.prevReset()
		}
	}
	return r
}

// Detach restores the hooks installed before Attach. The recorded events
// stay readable.
func (r *Recorder) Detach() {
	if r.detached {
		return
	}
	r.detached = true
	r.e.AfterAccess = r.prevAccess
	r.m.OnAlloc = r.prevAlloc
	r.m.OnReset = r.prevReset
}

// onAccess logs one completed transaction and folds it into the digest.
func (r *Recorder) onAccess(op mesif.Op, core topology.CoreID, l addr.LineAddr, a mesif.Access) {
	var seq uint64
	if r.e.Faults != nil {
		seq = r.e.Faults.Seq()
	}
	r.append(Event{Kind: EvOp, Op: op, Core: core, Line: l, WS: r.e.WorkingSet, Seq: seq})
	d := &r.digest
	d.Ops++
	switch op {
	case mesif.OpRead:
		d.Reads++
	case mesif.OpWrite:
		d.Writes++
	case mesif.OpFlush:
		d.Flushes++
	}
	if a.Source >= 0 && a.Source < mesif.NumSources {
		d.BySource[a.Source]++
	}
	if a.Broadcast {
		d.Broadcast++
	}
	if a.DirCacheHit {
		d.DirHits++
	}
	d.LatencyPs += a.Latency
}

// append pushes one event into the ring, dropping the oldest on overflow.
func (r *Recorder) append(ev Event) {
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % r.cap
	r.overflow++
}

// Events returns the buffered events in order, oldest first. The returned
// slice is a copy.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// Total returns the number of events appended since the baseline,
// including any that overflowed out of the ring.
func (r *Recorder) Total() uint64 { return r.total }

// Overflowed returns how many events were dropped from the ring's head.
// A nonzero value means the buffer no longer starts at a reconstructible
// machine state and the resulting bundle cannot be replayed.
func (r *Recorder) Overflowed() uint64 { return r.overflow }

// Digest returns the digest of everything recorded since the baseline,
// with the engine's fault counters (if an injector is attached) folded in
// at call time.
func (r *Recorder) Digest() Digest {
	d := r.digest
	if r.e.Faults != nil {
		d.Fault = r.e.Faults.Counters()
	}
	if id := coherence.Normalize(r.m.Cfg.Protocol); id != coherence.MESIF {
		d.Protocol = string(id)
	}
	return d
}

// SetBaseline snapshots the current buffer as the preamble that
// ResetToBaseline restores — typically the EvAlloc events of a rig's
// one-time setup. It fails if the ring has already overflowed. The digest
// restarts empty: baseline events are expected to be allocations, which
// contribute nothing to the digest.
func (r *Recorder) SetBaseline() error {
	if r.overflow > 0 {
		return fmt.Errorf("trace: cannot baseline a ring that dropped %d events", r.overflow)
	}
	r.baseline = r.Events()
	r.digest = Digest{}
	r.total = uint64(len(r.baseline))
	return nil
}

// ResetToBaseline discards everything recorded after the baseline. The
// caller must have returned the machine to its power-on-equivalent state
// (flush-reset or Machine.Reset) and freshly Reset the fault injector, so
// that a bundle recorded after this point replays against a newly built
// machine — the fuzz rigs do exactly this between inputs.
func (r *Recorder) ResetToBaseline() {
	r.buf = append(r.buf[:0], r.baseline...)
	r.start = 0
	r.overflow = 0
	r.total = uint64(len(r.buf))
	r.digest = Digest{}
	r.flowSolves = nil
	r.flowSolveOverflow = 0
}

// CorruptDirectory overwrites the line's in-memory directory entry with
// st and records the corruption as a replayable event. It fails when the
// line is unmapped or its home agent runs no directory.
func (r *Recorder) CorruptDirectory(l addr.LineAddr, st directory.MemState) error {
	ev := Event{Kind: EvCorruptDir, Line: l, State: int(st)}
	if err := Apply(r.m, ev); err != nil {
		return err
	}
	r.append(ev)
	return nil
}

// CorruptL3 rewrites the line's state in the node's L3 slice (Invalid
// drops the entry, stranding any private copies) and records the
// corruption as a replayable event.
func (r *Recorder) CorruptL3(node topology.NodeID, l addr.LineAddr, st cache.State) error {
	ev := Event{Kind: EvCorruptL3, Node: node, Line: l, State: int(st)}
	if err := Apply(r.m, ev); err != nil {
		return err
	}
	r.append(ev)
	return nil
}

// Apply applies a corruption event's state mutation to the machine;
// package replay uses it to re-apply recorded corruptions. EvOp, EvAlloc,
// and EvReset are not state corruptions and are rejected.
func Apply(m *machine.Machine, ev Event) error {
	switch ev.Kind {
	case EvCorruptDir:
		if _, err := m.HomeNode(ev.Line); err != nil {
			return err
		}
		ha := m.HA(ev.Line)
		if ha.Dir == nil {
			return fmt.Errorf("trace: line %#x's home agent runs no in-memory directory", uint64(ev.Line))
		}
		ha.Dir.SetState(ev.Line, directory.MemState(ev.State))
		return nil
	case EvCorruptL3:
		if int(ev.Node) < 0 || int(ev.Node) >= m.Topo.Nodes() {
			return fmt.Errorf("trace: node %d out of range", ev.Node)
		}
		if ev.State < int(cache.Invalid) || ev.State > int(cache.Owned) {
			return fmt.Errorf("trace: %d is not a cache state", ev.State)
		}
		sl := m.CAForNode(ev.Node, ev.Line)
		st := cache.State(ev.State)
		if st == cache.Invalid {
			m.Slice(sl).Invalidate(ev.Line)
			return nil
		}
		if !m.Slice(sl).Update(ev.Line, func(ln *cache.Line) { ln.State = st }) {
			return fmt.Errorf("trace: node %d's L3 does not hold line %#x", ev.Node, uint64(ev.Line))
		}
		return nil
	default:
		return fmt.Errorf("trace: event kind %v is not a corruption", ev.Kind)
	}
}
