// Package workload provides a synthetic multi-core workload generator and
// executor for the simulated machine: parameterized access patterns
// (sequential, strided, random, migratory, producer-consumer, read-shared)
// issued from arbitrary core sets through the MESIF engine.
//
// The paper's application study (Section VIII) explains its results through
// a handful of access-pattern archetypes — NUMA-local streaming, migratory
// (hotly contested) lines, cross-socket neighbor exchange. This package
// makes those archetypes runnable: a Spec describes the pattern, Run
// executes it access by access against the live protocol state, and the
// Result reports per-core latencies, the source mix, and protocol traffic.
//
//hsw:tier engine
package workload

import (
	"fmt"
	"math/rand"

	"haswellep/internal/addr"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// Pattern is a synthetic access pattern archetype.
type Pattern int

// The supported archetypes.
const (
	// Sequential: each core streams through its own partition of the
	// footprint in address order (NUMA-local streaming, MPI-style).
	Sequential Pattern = iota
	// Strided: like Sequential with a configurable line stride
	// (column-major sweeps, defeating spatial locality).
	Strided
	// Random: each core performs uniformly random accesses over the
	// whole footprint (pointer chasing, hash tables).
	Random
	// Migratory: every core in turn writes then reads the same small
	// line set (locks and hotly contested data — the HitME cache's
	// target workload).
	Migratory
	// ProducerConsumer: even-indexed cores write windows of the buffer
	// that the next core then reads (pipeline parallelism).
	ProducerConsumer
	// ReadShared: one core initializes the buffer, then every core reads
	// all of it (lookup tables, broadcast data).
	ReadShared
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case Migratory:
		return "migratory"
	case ProducerConsumer:
		return "producer-consumer"
	case ReadShared:
		return "read-shared"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Spec describes one synthetic workload.
type Spec struct {
	// Name labels the workload in reports.
	Name string
	// Pattern selects the archetype.
	Pattern Pattern
	// Footprint is the working set size in bytes.
	Footprint int64
	// StrideLines is the stride for Strided (in cache lines, >= 1).
	StrideLines int
	// WriteFraction is the store ratio for Sequential/Strided/Random.
	WriteFraction float64
	// Cores are the participating cores (at least one).
	Cores []topology.CoreID
	// HomeNode is where the buffer is allocated.
	HomeNode topology.NodeID
	// Accesses is the total number of accesses to simulate across all
	// cores (0 = one pass over the footprint per core).
	Accesses int
	// Seed makes Random streams reproducible.
	Seed int64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("workload %q: at least one core required", s.Name)
	}
	if s.Footprint < addr.LineSize {
		return fmt.Errorf("workload %q: footprint below one cache line", s.Name)
	}
	if s.WriteFraction < 0 || s.WriteFraction > 1 {
		return fmt.Errorf("workload %q: write fraction %v out of range", s.Name, s.WriteFraction)
	}
	if s.Pattern == Strided && s.StrideLines < 1 {
		return fmt.Errorf("workload %q: strided pattern needs StrideLines >= 1", s.Name)
	}
	if s.Pattern == ProducerConsumer && len(s.Cores) < 2 {
		return fmt.Errorf("workload %q: producer-consumer needs two cores", s.Name)
	}
	return nil
}

// CoreResult is one core's share of a run.
type CoreResult struct {
	Core     topology.CoreID
	Accesses int
	// TotalTime is the sum of this core's access latencies (its serial
	// execution time on the memory side).
	TotalTime units.Time
}

// MeanNs returns the core's average access latency.
func (c CoreResult) MeanNs() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return c.TotalTime.Nanoseconds() / float64(c.Accesses)
}

// Result summarizes a run.
type Result struct {
	Spec     Spec
	PerCore  []CoreResult
	BySource map[mesif.Source]int
	// Traffic is the engine-stat delta of the run (snoops, broadcasts,
	// directory hits).
	Traffic mesif.Stats
}

// Accesses returns the total access count.
func (r Result) Accesses() int {
	n := 0
	for _, c := range r.PerCore {
		n += c.Accesses
	}
	return n
}

// MakespanNs returns the slowest core's serial memory time — the run's
// memory-side completion time under concurrent execution.
func (r Result) MakespanNs() float64 {
	worst := 0.0
	for _, c := range r.PerCore {
		if t := c.TotalTime.Nanoseconds(); t > worst {
			worst = t
		}
	}
	return worst
}

// MeanNs returns the average access latency over all cores.
func (r Result) MeanNs() float64 {
	var total float64
	n := 0
	for _, c := range r.PerCore {
		total += c.TotalTime.Nanoseconds()
		n += c.Accesses
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// ThroughputGBps returns delivered bytes over the makespan.
func (r Result) ThroughputGBps() float64 {
	ms := r.MakespanNs()
	if ms == 0 {
		return 0
	}
	return float64(r.Accesses()) * float64(addr.LineSize) / ms
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d accesses on %d cores, mean %.1f ns, makespan %.1f us, %.1f GB/s touched",
		r.Spec.Name, r.Accesses(), len(r.PerCore), r.MeanNs(), r.MakespanNs()/1000, r.ThroughputGBps())
}

// op is one generated access.
type op struct {
	core  int // index into Spec.Cores
	line  addr.LineAddr
	write bool
}

// Runner executes workloads on an engine.
type Runner struct {
	E *mesif.Engine
}

// NewRunner builds a runner.
func NewRunner(e *mesif.Engine) *Runner { return &Runner{E: e} }

// Run allocates the buffer, generates the access stream, and executes it
// round-robin across the cores (modeling concurrent progress). The buffer
// is freshly allocated per run; protocol state accumulates realistically
// within the run.
func (r *Runner) Run(spec Spec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	region, err := r.E.M.AllocOnNode(spec.HomeNode, spec.Footprint)
	if err != nil {
		return Result{}, err
	}
	ops := generate(spec, region)

	r.E.WorkingSet = spec.Footprint
	before := r.E.Stats()

	res := Result{
		Spec:     spec,
		BySource: make(map[mesif.Source]int),
		PerCore:  make([]CoreResult, len(spec.Cores)),
	}
	for i, c := range spec.Cores {
		res.PerCore[i].Core = c
	}
	for _, o := range ops {
		op := mesif.OpRead
		if o.write {
			op = mesif.OpWrite
		}
		// Engine.Do is the checked entry: a spec naming cores outside
		// the machine surfaces as an error here, not a panic.
		acc, err := r.E.Do(op, spec.Cores[o.core], o.line)
		if err != nil {
			return Result{}, fmt.Errorf("workload %q: %w", spec.Name, err)
		}
		res.PerCore[o.core].Accesses++
		res.PerCore[o.core].TotalTime += acc.Latency
		res.BySource[acc.Source]++
	}

	after := r.E.Stats()
	res.Traffic = statsDelta(before, after)
	return res, nil
}

// statsDelta subtracts two engine stat snapshots.
func statsDelta(a, b mesif.Stats) mesif.Stats {
	d := mesif.Stats{
		Reads:      b.Reads - a.Reads,
		Writes:     b.Writes - a.Writes,
		Flushes:    b.Flushes - a.Flushes,
		Broadcasts: b.Broadcasts - a.Broadcasts,
		DirHits:    b.DirHits - a.DirHits,
		SnoopsSent: b.SnoopsSent - a.SnoopsSent,
		SnoopsQPI:  b.SnoopsQPI - a.SnoopsQPI,
		RemoteDRAM: b.RemoteDRAM - a.RemoteDRAM,
		BySource:   make(map[mesif.Source]uint64),
	}
	//hsw:unordered elementwise map subtraction; the result compares equal regardless of visit order
	for k, v := range b.BySource {
		d.BySource[k] = v - a.BySource[k]
	}
	return d
}

// generate produces the interleaved access stream of a spec.
func generate(spec Spec, region addr.Region) []op {
	lines := region.Lines()
	nCores := len(spec.Cores)
	perCore := spec.Accesses / nCores
	if spec.Accesses == 0 {
		perCore = len(lines)
	}
	if perCore == 0 {
		perCore = 1
	}

	streams := make([][]op, nCores)
	switch spec.Pattern {
	case Sequential, Strided, Random:
		stride := 1
		if spec.Pattern == Strided {
			stride = spec.StrideLines
		}
		// Partition the footprint between the cores.
		part := len(lines) / nCores
		if part == 0 {
			part = 1
		}
		for c := 0; c < nCores; c++ {
			rng := rand.New(rand.NewSource(spec.Seed + int64(c)*7919))
			lo := (c * part) % len(lines)
			for i := 0; i < perCore; i++ {
				var l addr.LineAddr
				if spec.Pattern == Random {
					l = lines[rng.Intn(len(lines))]
				} else {
					l = lines[(lo+i*stride)%len(lines)]
				}
				streams[c] = append(streams[c], op{
					core:  c,
					line:  l,
					write: rng.Float64() < spec.WriteFraction,
				})
			}
		}
	case Migratory:
		// All cores take turns on the same hot set: write then read,
		// line ownership migrating core to core.
		hot := lines
		if len(hot) > 64 {
			hot = hot[:64]
		}
		for c := 0; c < nCores; c++ {
			for i := 0; i < perCore; i += 2 {
				l := hot[(i/2)%len(hot)]
				streams[c] = append(streams[c],
					op{core: c, line: l, write: true},
					op{core: c, line: l, write: false})
			}
		}
	case ProducerConsumer:
		// Core pairs: producer writes a window, consumer reads it.
		window := len(lines) / 8
		if window == 0 {
			window = 1
		}
		for c := 0; c+1 < nCores; c += 2 {
			for i := 0; i < perCore; i++ {
				l := lines[i%len(lines)]
				streams[c] = append(streams[c], op{core: c, line: l, write: true})
				streams[c+1] = append(streams[c+1], op{core: c + 1, line: l, write: false})
			}
		}
	case ReadShared:
		// Core 0 initializes, everyone reads everything.
		for i := 0; i < len(lines); i++ {
			streams[0] = append(streams[0], op{core: 0, line: lines[i], write: true})
		}
		for c := 0; c < nCores; c++ {
			for i := 0; i < perCore; i++ {
				streams[c] = append(streams[c], op{core: c, line: lines[i%len(lines)], write: false})
			}
		}
	}

	// Round-robin interleave: models the cores progressing together.
	var out []op
	for i := 0; ; i++ {
		alive := false
		for c := 0; c < nCores; c++ {
			if i < len(streams[c]) {
				out = append(out, streams[c][i])
				alive = true
			}
		}
		if !alive {
			break
		}
	}
	return out
}

// Sizes commonly used by the examples.
const (
	SmallFootprint = 256 * units.KiB
	LargeFootprint = 16 * units.MiB
)
