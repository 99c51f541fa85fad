// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public Go APIs for a fixed time budget,
// checks that every output is correct, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a separate traced run) as
// a JSON object on the last line of standard output.
//
// Workloads (README.md explains why each was chosen):
//
//	paper-tables    Tables III, IV and VIII, single-threaded
//	chaos-campaign  the quick chaos sweep on two farm shards
//	whatif-cold     an in-process hswd answering distinct what-if queries
//	whatif-hot      the same hswd re-serving memoized answers
//
// Usage, from the repository root (run.py builds the binary first):
//
//	perfbench --workload paper-tables --seed 1 --seconds 30 --trace 0
//
// The directory name starts with an underscore so that the go command's
// ./... patterns and the repository's package-tier walk skip it; it is a
// module of its own (go.mod) that imports the simulator through a replace
// directive.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics; every untraced run prints all
// of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"live_heap_mib", "MiB"},
}

// perLayer lists the per-layer metrics; every traced run prints all of
// them. A layer the workload bypasses reads 0 in its counts and shares
// (README.md has the table).
var perLayer = []metricDef{
	{"mesif.tx", "count"},
	{"mesif.ns_per_tx", "ns"},
	{"mesif.mem_share", "share"},
	{"mesif.broadcast_share", "share"},
	{"invariant.ns_per_tx", "ns"},
	{"invariant.engine_ratio", "ratio"},
	{"invariant.full_check_ms", "ms"},
	{"experiments.env_build_ms", "ms"},
	{"trace.events", "count"},
	{"fault.injected", "count"},
	{"fault.retries", "count"},
	{"farm.busy_share", "share"},
	{"layer.experiments", "share"},
	{"layer.mesif", "share"},
	{"layer.invariant", "share"},
	{"layer.trace", "share"},
	{"layer.farm", "share"},
	{"layer.server", "share"},
	{"layer.client", "share"},
	{"cpu.cache", "share"},
	{"cpu.directory", "share"},
	{"cpu.machine", "share"},
	{"cpu.mesif", "share"},
	{"cpu.invariant", "share"},
	{"cpu.gc", "share"},
	{"cpu.json", "share"},
	{"cpu.net", "share"},
	{"cpu.syscall", "share"},
	{"tracing.overhead_s", "s"},
	{"tracing.overhead_share", "share"},
}

// run is the state one benchmark invocation shares with its workload.
type run struct {
	seed    int64
	budget  time.Duration
	traced  bool
	dir     string // scratch directory, removed at exit
	outDir  string // traced-run artifacts
	out     io.Writer
	start   time.Time
	metrics map[string]float64

	// ops counts attempted ops and failed the ones whose correctness
	// check failed; digest hashes the simulated outputs.
	ops, failed int
	digest      hash.Hash
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ measure, trace func(*run) error }{
	"paper-tables":   {measureTables, traceTables},
	"chaos-campaign": {measureChaos, traceChaos},
	"whatif-cold":    {measureCold, traceCold},
	"whatif-hot":     {measureHot, traceHot},
}

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-tables, chaos-campaign, whatif-cold or whatif-hot")
	seed := fs.Int64("seed", 1, "input seed: picks the what-if query mix and the chaos fault-plan seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	workDir := fs.String("workdir", ".bench_build/run", "parent of the per-run scratch directory")
	outDir := fs.String("outdir", ".bench_build/trace", "where the traced run writes its span file and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-tables|chaos-campaign|whatif-cold|whatif-hot), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1,
		dir: dir, outDir: *outDir, out: stdout, start: time.Now(),
		metrics: map[string]float64{}, digest: sha256.New(),
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d gomaxprocs %d\n",
		*name, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0))
	do := w.measure
	defs := endToEnd
	if r.traced {
		do, defs = w.trace, perLayer
	}
	if err := do(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
	}
	return r.finish(defs, stderr)
}

// finish prints the measured metrics of defs, the output digest and the
// result line, and returns the exit code: 1 when any op failed its
// correctness check.
func (r *run) finish(defs []metricDef, stderr io.Writer) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if len(r.metrics) == 0 {
		fmt.Fprintln(stderr, "perfbench: no metric was measured")
		return 1
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		delete(r.metrics, d.name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", d.name, v)
			return 1
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(r.out, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for m := range r.metrics {
		fmt.Fprintf(stderr, "perfbench: metric %s is not listed for this kind of run\n", m)
		return 1
	}
	correct := r.failed == 0 && r.ops > 0
	fmt.Fprintf(r.out, "ops %d ops_failed %d\n", r.ops, r.failed)
	fmt.Fprintf(r.out, "digest sha256:%s\n", hex.EncodeToString(r.digest.Sum(nil)))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.ops, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(r.out, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// op books one attempted op and its verdict.
func (r *run) op(ok bool, what string) {
	r.ops++
	if !ok {
		r.failed++
		fmt.Fprintf(r.out, "FAILED %s\n", what)
	}
}

// left is the measurement budget still unspent.
func (r *run) left() time.Duration { return r.budget - time.Since(r.start) }

// path names a file in the run's scratch directory.
func (r *run) path(elem ...string) string {
	return filepath.Join(append([]string{r.dir}, elem...)...)
}

// liveHeapMiB forces a collection and returns the live heap. Callers keep
// the op's env or server referenced across the call and call it outside
// timed intervals. The second collection frees what sync.Pool victim
// caches held through the first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}
