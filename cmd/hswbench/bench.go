package main

// The -bench mode: four throughput scenarios over the simulation engine,
// reported as a versioned JSON document (BENCH_3.json when written with
// the documented invocation:
//
//	go run ./cmd/hswbench -bench -bench-out BENCH_3.json
//
// Each scenario reports two kinds of numbers. The simulation-side fields
// (transaction counts, mean latencies, snoop and fault counters) are
// deterministic — byte-identical on every run and every machine — and
// double as a regression anchor: if one drifts, engine behavior changed,
// not just its speed. The wall-clock fields (wall_seconds, tx_per_sec)
// are the performance trajectory: machine-dependent, but comparable
// across commits on the same hardware. Wall-clock reads are legal here
// because commands are tool-tier — detorder fences them out of the engine
// and harness tiers, which is exactly what makes the sim-side fields
// trustworthy.
//
// The -bench-compare mode diffs the sim-side anchors of two reports:
// scenarios sharing a name must agree exactly, and a scenario present in
// the old report may not vanish from the new one. CI uses it to pin the
// current build against the checked-in baseline and the baseline against
// its predecessor.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"haswellep/internal/bench"
	"haswellep/internal/experiments"
	"haswellep/internal/farm"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// benchVersion is the BENCH_<version>.json schema version.
const benchVersion = 3

// benchReport is the full benchmark document.
type benchReport struct {
	Version   int             `json:"version"`
	GoVersion string          `json:"go_version"`
	Scenarios []benchScenario `json:"scenarios"`
}

// benchScenario is one scenario's result.
type benchScenario struct {
	Name string `json:"name"`
	// IncrementalChecker records whether the always-on per-line invariant
	// checker was attached (the harness's deployed configuration) or the
	// raw engine was measured.
	IncrementalChecker bool `json:"incremental_checker"`

	// Deterministic simulation-side anchors.
	Transactions uint64  `json:"transactions"`
	SimMeanNs    float64 `json:"sim_mean_ns,omitempty"`
	SimSnoops    uint64  `json:"sim_snoops,omitempty"`
	SimFaults    uint64  `json:"sim_faults,omitempty"`
	SimRetries   uint64  `json:"sim_retries,omitempty"`

	// Wall-clock throughput (machine-dependent).
	WallSeconds float64 `json:"wall_seconds"`
	TxPerSec    float64 `json:"tx_per_sec"`
}

// runBench executes every scenario and writes the report.
func runBench(stdout io.Writer, outPath string) error {
	rep := benchReport{Version: benchVersion, GoVersion: runtime.Version()}
	scenarios := []func() (benchScenario, error){
		benchPointerChase,
		benchCapacityPressure,
		benchChaosStream,
		benchFarmChaosStream,
	}
	for _, s := range scenarios {
		sc, err := s()
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, sc)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	return nil
}

// txCount is the engine's transaction total.
func txCount(st mesif.Stats) uint64 { return st.Reads + st.Writes + st.Flushes }

// benchPointerChase measures the raw engine (no checker) on the paper's
// dependent-load pattern: three pointer-chase passes over a 16 MiB buffer
// — larger than the L3, so every pass exercises the full miss path.
func benchPointerChase() (benchScenario, error) {
	m := machine.MustNew(machine.TestSystem(machine.SourceSnoop))
	e := mesif.New(m)
	region := m.MustAlloc(0, 16*units.MiB)

	var stat bench.LatencyStat
	start := time.Now()
	for pass := 0; pass < 3; pass++ {
		stat = bench.Latency(e, 0, region)
	}
	wall := time.Since(start).Seconds()

	st := e.Stats()
	tx := txCount(st)
	return benchScenario{
		Name:         "pointer-chase-16mib",
		Transactions: tx,
		SimMeanNs:    stat.MeanNs,
		SimSnoops:    st.SnoopsSent,
		WallSeconds:  wall,
		TxPerSec:     float64(tx) / wall,
	}, nil
}

// benchCapacityPressure measures the harness configuration (incremental
// checker attached) under the eviction-heavy regime of the capacity tests:
// a 24 MiB mixed read/write stream over one COD die, 1.6x the home
// cluster's L3, with cross-core revisits of a trailing window.
func benchCapacityPressure() (benchScenario, error) {
	cfg := machine.TestSystem(machine.COD)
	cfg.Sockets = 1
	m := machine.MustNew(cfg)
	e := mesif.New(m)
	rec := &invariant.Recorder{}
	detach := invariant.AttachIncremental(e, invariant.IncrementalOptions{Epoch: 16384}, rec.Record)
	defer detach()

	region := m.MustAlloc(0, 24*units.MiB)
	lines := region.Lines()
	cores := []topology.CoreID{0, 1, 6}
	rng := rand.New(rand.NewSource(0xCAFE))
	const window = 64

	start := time.Now()
	for i, l := range lines {
		c := cores[i%len(cores)]
		if i%4 == 0 {
			e.Write(c, l)
		} else {
			e.Read(c, l)
		}
		if i >= window && i%8 == 0 {
			e.Read(cores[(i+1)%len(cores)], lines[i-1-rng.Intn(window)])
		}
	}
	wall := time.Since(start).Seconds()
	if err := rec.Err(); err != nil {
		return benchScenario{}, fmt.Errorf("capacity-pressure: %w", err)
	}

	st := e.Stats()
	tx := txCount(st)
	return benchScenario{
		Name:               "capacity-pressure-24mib",
		IncrementalChecker: true,
		Transactions:       tx,
		SimSnoops:          st.SnoopsSent,
		WallSeconds:        wall,
		TxPerSec:           float64(tx) / wall,
	}, nil
}

// benchChaosStream measures the fully loaded configuration — fault
// injection plus the always-on checker — on a cross-socket mixed stream:
// the chaos sweep's per-transaction cost, isolated from the sweep's
// experiment matrices.
func benchChaosStream() (benchScenario, error) {
	const (
		seed = 7
		rate = 0.01
	)
	env, err := experiments.NewEnvWithFaults(machine.COD, experiments.ChaosPlanAt(seed, rate))
	if err != nil {
		return benchScenario{}, err
	}
	region := env.M.MustAlloc(0, 8*units.MiB)
	lines := region.Lines()
	// Home cluster, sibling cluster, remote socket: every snoop path.
	cores := []topology.CoreID{0, 6, 12}

	start := time.Now()
	for i, l := range lines {
		c := cores[i%len(cores)]
		if i%4 == 0 {
			env.E.Write(c, l)
		} else {
			env.E.Read(c, l)
		}
	}
	wall := time.Since(start).Seconds()
	if err := env.Check.Err(); err != nil {
		return benchScenario{}, fmt.Errorf("chaos-stream: recovery failed: %w", err)
	}

	ctr := env.E.Faults.Counters()
	var injected uint64
	for _, n := range ctr.Injected {
		injected += n
	}
	st := env.E.Stats()
	tx := txCount(st)
	return benchScenario{
		Name:               "chaos-stream-8mib",
		IncrementalChecker: true,
		Transactions:       tx,
		SimSnoops:          st.SnoopsSent,
		SimFaults:          injected,
		SimRetries:         ctr.Retries,
		WallSeconds:        wall,
		TxPerSec:           float64(tx) / wall,
	}, nil
}

// benchFarmChaosStream measures the experiment farm's deployed shape:
// eight independent chaos-stream points (one engine each, seeds 100..107)
// dispatched across four shards. The sim-side anchors are integer sums
// over all points, so they are independent of shard count and completion
// order; the wall clock wraps the whole campaign and is where the farm's
// parallel speedup shows up.
func benchFarmChaosStream() (benchScenario, error) {
	const (
		points = 8
		shards = 4
		rate   = 0.01
	)
	type pointSums struct {
		Tx      uint64 `json:"tx"`
		Snoops  uint64 `json:"snoops"`
		Faults  uint64 `json:"faults"`
		Retries uint64 `json:"retries"`
	}
	seeds := make([]int64, points)
	for i := range seeds {
		seeds[i] = int64(100 + i)
	}

	start := time.Now()
	results, err := farm.Run(context.Background(), farm.Options{Shards: shards}, seeds,
		func(i int, seed int64) string { return fmt.Sprintf("%03d:seed=%d", i, seed) },
		func(_ *farm.Ctx, seed int64) (pointSums, error) {
			env, err := experiments.NewEnvWithFaults(machine.COD, experiments.ChaosPlanAt(seed, rate))
			if err != nil {
				return pointSums{}, err
			}
			region := env.M.MustAlloc(0, 2*units.MiB)
			cores := []topology.CoreID{0, 6, 12}
			for i, l := range region.Lines() {
				c := cores[i%len(cores)]
				if i%4 == 0 {
					env.E.Write(c, l)
				} else {
					env.E.Read(c, l)
				}
			}
			if err := env.Check.Err(); err != nil {
				return pointSums{}, fmt.Errorf("farm-chaos-stream seed %d: recovery failed: %w", seed, err)
			}
			ctr := env.E.Faults.Counters()
			var injected uint64
			for _, n := range ctr.Injected {
				injected += n
			}
			st := env.E.Stats()
			return pointSums{
				Tx:      txCount(st),
				Snoops:  st.SnoopsSent,
				Faults:  injected,
				Retries: ctr.Retries,
			}, nil
		})
	wall := time.Since(start).Seconds()
	if err != nil {
		return benchScenario{}, err
	}

	var total pointSums
	for _, r := range results {
		if !r.OK() {
			return benchScenario{}, r.Failure
		}
		total.Tx += r.Value.Tx
		total.Snoops += r.Value.Snoops
		total.Faults += r.Value.Faults
		total.Retries += r.Value.Retries
	}
	return benchScenario{
		Name:               "farm-chaos-stream-8x2mib",
		IncrementalChecker: true,
		Transactions:       total.Tx,
		SimSnoops:          total.Snoops,
		SimFaults:          total.Faults,
		SimRetries:         total.Retries,
		WallSeconds:        wall,
		TxPerSec:           float64(total.Tx) / wall,
	}, nil
}

// readBenchReport loads and sanity-checks a BENCH_*.json document.
func readBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Scenarios) == 0 {
		return nil, fmt.Errorf("%s: no scenarios", path)
	}
	return &rep, nil
}

// runBenchCompare diffs the deterministic sim-side anchors of two bench
// reports. Every scenario in the old report must appear in the new one
// with byte-identical sim fields; the new report may add scenarios (that
// is how the suite grows) but may not drop or drift any. Wall-clock
// fields are machine-dependent and deliberately ignored.
func runBenchCompare(stdout io.Writer, oldPath, newPath string) error {
	oldRep, err := readBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(newPath)
	if err != nil {
		return err
	}
	byName := make(map[string]benchScenario, len(newRep.Scenarios))
	for _, sc := range newRep.Scenarios {
		byName[sc.Name] = sc
	}
	shared := 0
	for _, o := range oldRep.Scenarios {
		n, ok := byName[o.Name]
		if !ok {
			return fmt.Errorf("scenario %q present in %s but dropped from %s", o.Name, oldPath, newPath)
		}
		if err := compareScenario(o, n); err != nil {
			return fmt.Errorf("scenario %q drifted between %s and %s: %w", o.Name, oldPath, newPath, err)
		}
		shared++
		fmt.Fprintf(stdout, "  %-28s ok (%d transactions)\n", o.Name, o.Transactions)
	}
	fmt.Fprintf(stdout, "bench compare ok: %d shared scenario(s) sim-identical, %d new in %s\n",
		shared, len(newRep.Scenarios)-shared, newPath)
	return nil
}

// compareScenario checks the deterministic sim-side anchors of one
// scenario pair.
func compareScenario(o, n benchScenario) error {
	if o.IncrementalChecker != n.IncrementalChecker {
		return fmt.Errorf("incremental_checker %v -> %v", o.IncrementalChecker, n.IncrementalChecker)
	}
	if o.Transactions != n.Transactions {
		return fmt.Errorf("transactions %d -> %d", o.Transactions, n.Transactions)
	}
	if o.SimMeanNs != n.SimMeanNs {
		return fmt.Errorf("sim_mean_ns %v -> %v", o.SimMeanNs, n.SimMeanNs)
	}
	if o.SimSnoops != n.SimSnoops {
		return fmt.Errorf("sim_snoops %d -> %d", o.SimSnoops, n.SimSnoops)
	}
	if o.SimFaults != n.SimFaults {
		return fmt.Errorf("sim_faults %d -> %d", o.SimFaults, n.SimFaults)
	}
	if o.SimRetries != n.SimRetries {
		return fmt.Errorf("sim_retries %d -> %d", o.SimRetries, n.SimRetries)
	}
	return nil
}
