package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"haswellep/internal/addr"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// The traced run records spans around the benchmark's own calls into each
// layer and aggregates the engine's per-transaction hooks; nothing inside
// the program is instrumented. Span names are "<layer>:<what>": a span's
// self time (the part of its interval no child span covers) is charged to
// its layer, and the hook time an op's probe measured inside its engine
// spans moves from mesif to invariant and trace. The layers of an op
// therefore sum to the op's traced wall time by construction.

// span is one timed interval of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Op     string `json:"op"` // one table, one chaos point or one HTTP request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ":")
	return layer
}

// hookStats aggregates one hook's per-transaction timings: Table IV alone
// issues millions of transactions, too many to keep as spans.
type hookStats struct {
	Count uint64 `json:"count"`
	SumNs int64  `json:"sum_ns"`
	// Log2 holds the histogram: bucket i counts calls that took
	// [2^i, 2^(i+1)) ns.
	Log2 [40]uint64 `json:"log2_ns"`
}

func (h *hookStats) add(d time.Duration) {
	h.Count++
	h.SumNs += int64(d)
	if d > 0 {
		h.Log2[min(bits.Len64(uint64(d))-1, len(h.Log2)-1)]++
	}
}

// engineProbe counts an op's transactions through the engine's AfterAccess
// hook and times the hooks that invariant (AfterTransaction) and trace
// (AfterAccess) installed. Engine.Stats cannot count them: Env.Fresh
// resets the statistics before every table cell.
type engineProbe struct {
	Tx        uint64    `json:"tx"`
	Mem       uint64    `json:"mem"`
	Broadcast uint64    `json:"broadcast"`
	Check     hookStats `json:"invariant_hook"`
	Record    hookStats `json:"trace_hook"`
}

// attachProbe wraps the engine's installed hooks with p's counters and
// timers. Attach it after the checker and recorder it times.
func attachProbe(e *mesif.Engine, p *engineProbe) {
	if check := e.AfterTransaction; check != nil {
		e.AfterTransaction = func(op mesif.Op, core topology.CoreID, l addr.LineAddr) {
			t := time.Now()
			check(op, core, l)
			p.Check.add(time.Since(t))
		}
	}
	record := e.AfterAccess
	e.AfterAccess = func(op mesif.Op, core topology.CoreID, l addr.LineAddr, a mesif.Access) {
		p.Tx++
		if a.Source == mesif.SrcMemory || a.Source == mesif.SrcMemoryForward {
			p.Mem++
		}
		if a.Broadcast {
			p.Broadcast++
		}
		if record != nil {
			t := time.Now()
			record(op, core, l, a)
			p.Record.add(time.Since(t))
		}
	}
}

// tracer holds the traced run's spans and probes in memory until the run
// writes them out. Safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	roots  map[string]int // op → its latest root span
	byName map[string]int // op + "\x00" + span name → its latest span
	probes map[string]*engineProbe
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: map[string]int{}, byName: map[string]int{}, probes: map[string]*engineProbe{}}
}

func (t *tracer) begin(name, op string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(time.Since(t.t0)), End: -1})
	if parent == 0 || t.spans[parent-1].Op != op {
		t.roots[op] = id
	}
	t.byName[op+"\x00"+name] = id
	return id
}

// named returns the op's latest span of that name (0 when none).
func (t *tracer) named(op, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byName[op+"\x00"+name]
}

// root returns the op's root span (0 when the op has none yet).
func (t *tracer) root(op string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[op]
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// do runs f inside a span.
func (t *tracer) do(name, op string, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// probe returns the op's engine probe, creating it on first use.
func (t *tracer) probe(op string) *engineProbe {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.probes[op]
	if p == nil {
		p = &engineProbe{}
		t.probes[op] = p
	}
	return p
}

// durationsMs returns the durations of every span of that name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// totalProbe sums every op's probe.
func (t *tracer) totalProbe() engineProbe {
	var s engineProbe
	for _, p := range t.probes {
		s.Tx += p.Tx
		s.Mem += p.Mem
		s.Broadcast += p.Broadcast
		s.Check.Count += p.Check.Count
		s.Check.SumNs += p.Check.SumNs
		s.Record.Count += p.Record.Count
		s.Record.SumNs += p.Record.SumNs
	}
	return s
}

// opTime is one op's traced wall time split by layer.
type opTime struct {
	Op     string           `json:"op"`
	Name   string           `json:"name"`
	WallNs int64            `json:"wall_ns"`
	Layers map[string]int64 `json:"layers_ns"`
}

// attribute splits every op's traced wall time into layers. An op's root
// is its span whose parent belongs to another op (or that has none). Each
// instant of the root's interval goes to the innermost spans active then,
// split evenly among them when several run concurrently (two farm shards
// inside one request); a child span of another op counts as layer "ops".
func (t *tracer) attribute() []opTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]int{}
	for _, s := range t.spans {
		if s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	var out []opTime
	for _, root := range t.spans {
		if root.End < root.Start || (root.Parent != 0 && t.spans[root.Parent-1].Op == root.Op) {
			continue
		}
		ot := opTime{Op: root.Op, Name: root.Name, WallNs: root.End - root.Start, Layers: map[string]int64{}}
		// Gather the op's spans; a span of another op is a leaf.
		type node struct {
			s    span
			leaf bool
		}
		nodes := []node{{s: root}}
		for i := 0; i < len(nodes); i++ {
			if nodes[i].leaf {
				continue
			}
			for _, id := range kids[nodes[i].s.ID] {
				c := t.spans[id-1]
				nodes = append(nodes, node{s: c, leaf: c.Op != root.Op})
			}
		}
		parentOf := map[int]int{}
		cuts := []int64{root.Start, root.End}
		for _, n := range nodes {
			parentOf[n.s.ID] = n.s.Parent
			cuts = append(cuts, max(root.Start, min(root.End, n.s.Start)), max(root.Start, min(root.End, n.s.End)))
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if b == a {
				continue
			}
			active := map[int]node{}
			for _, n := range nodes {
				if n.s.Start <= a && n.s.End >= b {
					active[n.s.ID] = n
				}
			}
			hasKid := map[int]bool{}
			for id := range active {
				if id != root.ID {
					hasKid[parentOf[id]] = true
				}
			}
			var leaves []string
			for id, n := range active {
				if hasKid[id] {
					continue
				}
				if n.leaf {
					leaves = append(leaves, "ops")
				} else {
					leaves = append(leaves, n.s.layer())
				}
			}
			for j, l := range leaves {
				// Spread the remainder so the layers sum exactly.
				share := (b - a) / int64(len(leaves))
				if j < int((b-a)%int64(len(leaves))) {
					share++
				}
				ot.Layers[l] += share
			}
		}
		if p := t.probes[root.Op]; p != nil {
			ot.Layers["mesif"] -= p.Check.SumNs + p.Record.SumNs
			ot.Layers["invariant"] += p.Check.SumNs
			ot.Layers["trace"] += p.Record.SumNs
		}
		out = append(out, ot)
	}
	return out
}

// report prints the layer split summed over the ops of each name, checks
// that each op's layers sum to its wall time, and writes the span file.
// It returns the attribution.
func (t *tracer) report(r *run, workload string, fold map[string]float64) ([]opTime, error) {
	ops := t.attribute()
	type group struct {
		ops    int
		wall   int64
		layers map[string]int64
	}
	groups := map[string]*group{}
	var names []string
	bad := 0
	for _, ot := range ops {
		g := groups[ot.Name]
		if g == nil {
			g = &group{layers: map[string]int64{}}
			groups[ot.Name] = g
			names = append(names, ot.Name)
		}
		g.ops++
		g.wall += ot.WallNs
		var s int64
		for l, v := range ot.Layers {
			g.layers[l] += v
			s += v
		}
		if s != ot.WallNs {
			bad++
		}
	}
	for _, n := range names {
		g := groups[n]
		fmt.Fprintf(r.out, "layers %-22s ops %5d wall %9.3fs", n, g.ops, float64(g.wall)/1e9)
		var ls []string
		for l := range g.layers {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		for _, l := range ls {
			fmt.Fprintf(r.out, " %s=%.3fs", l, float64(g.layers[l])/1e9)
		}
		fmt.Fprintln(r.out)
	}
	fmt.Fprintf(r.out, "layers sum to op wall time on %d of %d ops\n", len(ops)-bad, len(ops))
	if bad != 0 {
		return nil, fmt.Errorf("%d ops whose layer times do not sum to their wall time", bad)
	}

	t.mu.Lock()
	doc := map[string]any{
		"workload": workload, "seed": r.seed,
		"spans": t.spans, "probes": t.probes, "ops": ops,
		"cpu_fold": fold,
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.spans.json", workload, r.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.out, "span file %s (%d spans)\n", path, len(t.spans))
	return ops, nil
}

// startProfile starts the traced pass's CPU profile; the returned function
// stops it and returns the profile's package fold.
func startProfile(r *run, workload string) (func() (map[string]float64, error), error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(r.out, "cpu profile %s\n", path)
		return foldProfile(path)
	}, nil
}

// setCPU copies the profile fold into the cpu.* metrics.
func (r *run) setCPU(fold map[string]float64) {
	for _, k := range []string{"cache", "directory", "machine", "mesif", "invariant", "gc", "json", "net", "syscall"} {
		r.metrics["cpu."+k] = fold[k]
	}
}

// setEngine derives the engine-level metrics from the probes: engine time
// is the ops' mesif layer time (already net of hook time).
func (r *run) setEngine(t *tracer, ops []opTime) {
	p := t.totalProbe()
	var engine int64
	for _, ot := range ops {
		engine += ot.Layers["mesif"]
	}
	tx := float64(p.Tx)
	r.metrics["mesif.tx"] = tx
	r.metrics["mesif.ns_per_tx"] = float64(engine) / tx
	r.metrics["mesif.mem_share"] = float64(p.Mem) / tx
	r.metrics["mesif.broadcast_share"] = float64(p.Broadcast) / tx
	r.metrics["invariant.ns_per_tx"] = float64(p.Check.SumNs) / tx
	r.metrics["invariant.engine_ratio"] = float64(p.Check.SumNs) / float64(engine)
}

// layers are the span layers whose share of op time a traced run reports.
var layers = []string{"experiments", "mesif", "invariant", "trace", "farm", "server", "client"}

// setLayers sets layer.<name>: the share of the wall time of the ops
// with these root span names that the attribution charged to the layer.
func (r *run) setLayers(ops []opTime, names ...string) {
	var wall int64
	byLayer := map[string]int64{}
	for _, ot := range ops {
		if !slices.Contains(names, ot.Name) {
			continue
		}
		wall += ot.WallNs
		for l, v := range ot.Layers {
			byLayer[l] += v
		}
	}
	for _, l := range layers {
		r.metrics["layer."+l] = float64(byLayer[l]) / float64(wall)
	}
}

// bypassed sets per-layer counts and shares of layers the workload's path
// does not reach to their true value, 0.
func (r *run) bypassed(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

// setOverhead records the tracing overhead: traced minus untraced wall
// time of the same work.
func (r *run) setOverhead(untraced, traced time.Duration) {
	r.metrics["tracing.overhead_s"] = (traced - untraced).Seconds()
	r.metrics["tracing.overhead_share"] = (traced - untraced).Seconds() / untraced.Seconds()
	fmt.Fprintf(r.out, "tracing overhead: untraced %.3fs traced %.3fs (%+.1f%%)\n",
		untraced.Seconds(), traced.Seconds(), 100*(traced-untraced).Seconds()/untraced.Seconds())
}
