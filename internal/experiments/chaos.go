package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/coherence"
	"haswellep/internal/farm"
	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/report"
	"haswellep/internal/trace"
)

// The chaos sweep is the robustness extension of the reproduction: it
// re-runs the paper's Table IV/V latency matrices under increasing fault
// pressure (dropped snoop responses, poisoned directory entries, lying
// HitME lookups, agent stalls, and degraded QPI/DRAM) and reports how
// gracefully the protocol's latencies and bandwidth ceilings degrade. At
// rate 0 the plan is inert — no randomness is consumed and no penalty is
// charged — so the sweep's first point reproduces the baseline tables
// exactly.
//
// The sweep runs on the experiment farm (internal/farm): each rate is one
// point with its own engine, so points are independent and the campaign is
// byte-identical at any shard count; farm options add per-point deadlines,
// retry budgets, checkpoint/resume, and panic isolation on top.

// ChaosPoint is one fault-rate step of the sweep.
type ChaosPoint struct {
	// Rate is the per-opportunity probability of every dynamic fault kind.
	Rate float64
	// Plan is the executed fault plan (pricing defaults applied).
	Plan fault.Plan
	// Table4 and Table5 are the latency matrices measured under the plan.
	Table4 MatrixResult
	Table5 MatrixResult
	// Counters is the injector's tally over both matrices.
	Counters fault.Counters
	// FaultEvents is the length of the executed fault schedule.
	FaultEvents int
	// StaleFindings counts the checker's documented-staleness findings at
	// the end of the point (hard violations abort the sweep instead).
	StaleFindings int
	// Traffic aggregates DRAM and directory write traffic over the point.
	Traffic machine.TrafficStats
	// RemoteReadGBps is the max-min aggregate for a socket's cores
	// streaming from remote memory under the plan's degraded QPI and DRAM
	// capacities — the bandwidth face of graceful degradation.
	RemoteReadGBps float64
}

// Mean4 and Mean5 return the mean of the point's latency matrices.
func (p ChaosPoint) Mean4() float64 { return matrixMean(p.Table4.Values) }
func (p ChaosPoint) Mean5() float64 { return matrixMean(p.Table5.Values) }

func matrixMean(v [4][4]float64) float64 {
	var s float64
	n := 0
	for _, row := range v {
		for _, x := range row {
			s += x
			n++
		}
	}
	return s / float64(n)
}

// chaosPointRec is the JSON-round-trippable core of a ChaosPoint: exactly
// the measured numbers, none of the derived presentation. It is what the
// farm's point function returns and what the checkpoint journal stores —
// Go's encoding/json emits the shortest float64 representation, which
// decodes back to the identical bits, so a point restored from a
// checkpoint reconstructs a ChaosPoint byte-identical to a fresh run.
type chaosPointRec struct {
	Rate           float64              `json:"rate"`
	Plan           fault.Plan           `json:"plan"`
	Table4         [4][4]float64        `json:"table4"`
	Table5         [4][4]float64        `json:"table5"`
	Counters       fault.Counters       `json:"counters"`
	FaultEvents    int                  `json:"fault_events"`
	StaleFindings  int                  `json:"stale_findings"`
	Traffic        machine.TrafficStats `json:"traffic"`
	RemoteReadGBps float64              `json:"remote_read_gbps"`
}

// Point rebuilds the full presentation-carrying ChaosPoint from the
// measured numbers.
func (r chaosPointRec) Point(includeT5 bool) ChaosPoint {
	pt := ChaosPoint{
		Rate:           r.Rate,
		Plan:           r.Plan,
		Counters:       r.Counters,
		FaultEvents:    r.FaultEvents,
		StaleFindings:  r.StaleFindings,
		Traffic:        r.Traffic,
		RemoteReadGBps: r.RemoteReadGBps,
	}
	pt.Table4 = MatrixResult{
		Values:      r.Table4,
		Table:       matrixTable(table4Title, r.Table4),
		Comparisons: matrixComparisons("T4", r.Table4, table4Paper),
	}
	if includeT5 {
		pt.Table5 = MatrixResult{
			Values:      r.Table5,
			Table:       matrixTable(table5Title, r.Table5),
			Comparisons: matrixComparisons("T5", r.Table5, table5Paper),
		}
	}
	return pt
}

// ChaosResult is the full sweep.
type ChaosResult struct {
	Seed int64
	// Points holds the completed points in rate order. In a tolerant
	// campaign (ChaosOptions.Tolerate) degraded points are absent here and
	// listed in Degraded instead.
	Points []ChaosPoint
	// Table summarizes the sweep, one row per rate (degraded points get a
	// degraded row).
	Table *report.Table
	// Degraded lists tolerated point failures, in rate order. Empty unless
	// ChaosOptions.Tolerate is set — a non-tolerant sweep aborts on the
	// first degraded point instead.
	Degraded []*farm.PointFailure
	// Farm summarizes the campaign's execution: completed / degraded /
	// skipped / checkpoint-restored point counts and total retries.
	Farm farm.Stats
}

// ChaosPlanAt builds the sweep's plan for one fault rate: every dynamic
// kind at the given probability, QPI stretched by 1+2r (links degrade
// fastest in the field: cable/retimer margins), DRAM by 1+r. Rate 0 yields
// a fully inert plan, so the sweep's baseline point is exact.
func ChaosPlanAt(seed int64, rate float64) fault.Plan {
	p := fault.Uniform(seed, rate)
	if rate > 0 {
		p.QPILatencyFactor = 1 + 2*rate
		p.DRAMLatencyFactor = 1 + rate
	}
	return p
}

// ChaosOptions tunes ChaosSweepOpts.
type ChaosOptions struct {
	// IncludeT5 measures the memory-latency matrix too. It is ~5x the
	// cost of the L3 matrix, so smoke runs (CI, quick local checks) skip
	// it; skipped points report a zero Table5 and "-" in the summary row.
	IncludeT5 bool
	// BundleDir, when non-empty, attaches a flight recorder to every
	// point's engine and writes a repro bundle there when the point's
	// acceptance gate finds a hard violation — the sweep's abort error
	// then names the bundle — or when the point panics (the farm's capture
	// hook fires while the panic unwinds; the bundle path lands in the
	// point's failure record). A point's full matrix run overflows the
	// recorder's ring, in which case the bundle is marked truncated: it
	// still documents the finding, plan, and digest, but cmd/hswreplay
	// will refuse to re-execute it.
	BundleDir string

	// Shards is the farm's worker count; below 1 means 1. Points are
	// independent (one engine each), so any shard count produces
	// byte-identical results.
	Shards int
	// PointDeadline bounds one attempt of one point; 0 means unbounded.
	PointDeadline time.Duration
	// Retries is the per-point retry budget for failed attempts.
	Retries int
	// CheckpointPath, when non-empty, journals completed points there and
	// resumes from any the journal already holds. The journal is keyed by
	// the campaign identity (config, seed, rates, T5 flag); reusing a path
	// across different campaigns is an error.
	CheckpointPath string
	// Tolerate keeps the campaign running past degraded points: failures
	// are collected in ChaosResult.Degraded (with degraded table rows)
	// instead of aborting the sweep. Without it the first degraded point
	// aborts, matching the historical serial semantics.
	Tolerate bool
	// InjectPanic lists point indices whose point function panics
	// deliberately after touching a few lines — the farm's failure-path
	// test hook (exercised by cmd/hswchaos -inject-panic and CI's farm
	// smoke step).
	InjectPanic []int
	// OnPointDone, when non-nil, is invoked after each executed point
	// (see farm.Options.OnPointDone).
	OnPointDone func(key string, failed bool)
	// Protocol selects the coherence protocol every point's engine runs;
	// the zero value is MESIF. Part of the campaign identity: a
	// checkpoint journal recorded under one protocol refuses to resume a
	// sweep under another.
	Protocol coherence.ID
}

// ChaosSweepOpts runs the Table IV/V reproduction under each fault rate.
// Unless o.Tolerate is set, any hard coherence violation after a point's
// measurements — a fault the engine failed to recover from — aborts the
// sweep with an error; the invariant checker is the sweep's acceptance
// gate.
func ChaosSweepOpts(seed int64, rates []float64, o ChaosOptions) (ChaosResult, error) {
	return ChaosSweepCtx(context.Background(), seed, rates, o)
}

// chaosCampaignKey is the campaign identity a checkpoint journal is keyed
// by: anything that changes the points' measured numbers must appear here,
// so a stale journal can never leak results into a different campaign.
func chaosCampaignKey(seed int64, rates []float64, o ChaosOptions) string {
	rs := make([]string, len(rates))
	for i, r := range rates {
		rs[i] = strconv.FormatFloat(r, 'g', -1, 64)
	}
	return fmt.Sprintf("chaos/v2 mode=%v proto=%s seed=%d t5=%v rates=%s",
		machine.COD, coherence.Normalize(o.Protocol), seed, o.IncludeT5, strings.Join(rs, ","))
}

// ChaosSweepCtx is ChaosSweepOpts under a context: cancelling it (e.g. on
// SIGINT) stops dispatch, drains in-flight points into the checkpoint
// journal, and returns the partial result with a wrapped context error.
func ChaosSweepCtx(ctx context.Context, seed int64, rates []float64, o ChaosOptions) (ChaosResult, error) {
	res := ChaosResult{Seed: seed}
	title := fmt.Sprintf("Chaos sweep (seed %d): Table IV/V under fault injection", seed)
	if id := coherence.Normalize(o.Protocol); id != coherence.MESIF {
		title = fmt.Sprintf("Chaos sweep (seed %d, %s): Table IV/V under fault injection", seed, id)
	}
	res.Table = report.NewTable(title,
		"rate", "T4 mean ns", "T5 mean ns", "faults", "retries", "dir repairs",
		"wasted snoops", "penalty ns", "remote read GB/s", "stale")

	var journal *farm.Journal
	if o.CheckpointPath != "" {
		j, err := farm.OpenJournal(o.CheckpointPath, chaosCampaignKey(seed, rates, o))
		if err != nil {
			return ChaosResult{}, err
		}
		journal = j
		defer journal.Close()
	}
	inject := make(map[int]bool, len(o.InjectPanic))
	for _, i := range o.InjectPanic {
		inject[i] = true
	}

	results, runErr := farm.Run(ctx, farm.Options{
		Shards:        o.Shards,
		PointDeadline: o.PointDeadline,
		Retries:       o.Retries,
		Journal:       journal,
		StopOnFailure: !o.Tolerate,
		OnPointDone:   o.OnPointDone,
	}, rates,
		func(i int, rate float64) string { return fmt.Sprintf("%03d:rate=%g", i, rate) },
		func(c *farm.Ctx, rate float64) (chaosPointRec, error) {
			return chaosPointRun(seed, rate, o, c, inject[c.Index])
		})
	if results == nil {
		return ChaosResult{}, runErr
	}

	for _, r := range results {
		switch {
		case r.OK():
			pt := r.Value.Point(o.IncludeT5)
			res.Points = append(res.Points, pt)
			addChaosRow(res.Table, rates[r.Index], pt, o.IncludeT5)
		case r.Failure.Kind == farm.KindSkipped:
			// Counted in res.Farm; no table row — the point never ran.
		case !o.Tolerate:
			return ChaosResult{}, fmt.Errorf("chaos sweep rate %g: %w", rates[r.Index], r.Failure)
		default:
			res.Degraded = append(res.Degraded, r.Failure)
			res.Table.AddRow(fmt.Sprintf("%.3f", rates[r.Index]),
				"degraded", r.Failure.Kind.String(), "-", "-", "-", "-", "-", "-", "-")
		}
	}
	res.Farm = farm.Summarize(results)
	if runErr != nil {
		return res, fmt.Errorf("chaos sweep interrupted: %w", runErr)
	}
	return res, nil
}

// addChaosRow formats one completed point's summary row.
func addChaosRow(t *report.Table, rate float64, pt ChaosPoint, includeT5 bool) {
	var injected uint64
	for _, n := range pt.Counters.Injected {
		injected += n
	}
	t5cell := "-"
	if includeT5 {
		t5cell = fmtNs(pt.Mean5())
	}
	t.AddRow(
		fmt.Sprintf("%.3f", rate),
		fmtNs(pt.Mean4()), t5cell,
		fmt.Sprintf("%d", injected),
		fmt.Sprintf("%d", pt.Counters.Retries),
		fmt.Sprintf("%d", pt.Counters.DirectoryRepairs),
		fmt.Sprintf("%d", pt.Counters.WastedSnoops),
		fmt.Sprintf("%.0f", pt.Counters.PenaltyNs),
		fmtGB(pt.RemoteReadGBps),
		fmt.Sprintf("%d", pt.StaleFindings),
	)
}

// sanitizeKey maps a point key to a filename-safe form.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}

// armPoint wires one experiment point's failure capture onto env. With a
// bundle directory it attaches a flight recorder and, when the farm drives
// the point (fc non-nil), registers a panic-capture hook writing
// panic-<key>-attempt<n>.json as soon as the recorder exists, so even an
// early panic yields a replayable bundle. With injectPanic it then runs the
// failure-path test hook: touch a few lines, so the recorder holds a
// replayable event stream, then die with panicMsg the way a harness bug
// would. It returns the recorder, nil without a bundle directory.
func armPoint(env *Env, fc *farm.Ctx, bundleDir string, injectPanic bool, panicMsg string) *trace.Recorder {
	var tr *trace.Recorder
	if bundleDir != "" {
		tr = env.AttachFlightRecorder(bundleDir, 0)
		if fc != nil {
			fc.CaptureOnPanic(func(any) (string, error) {
				path := filepath.Join(bundleDir,
					fmt.Sprintf("panic-%s-attempt%d.json", sanitizeKey(fc.Key), fc.Attempt))
				if werr := trace.WriteFile(path, tr.Bundle(nil)); werr != nil {
					return "", werr
				}
				return path, nil
			})
		}
	}
	if injectPanic {
		env.Fresh()
		r := env.Alloc(0, 64*64)
		bench.Latency(env.E, 0, r)
		panic(panicMsg)
	}
	return tr
}

// chaosPointRun measures one fault rate: build a fault-injecting engine
// under o.Protocol, run the matrices, gate on the invariant checker, and
// return the measured numbers.
func chaosPointRun(seed int64, rate float64, o ChaosOptions, fc *farm.Ctx, injectPanic bool) (chaosPointRec, error) {
	plan := ChaosPlanAt(seed, rate)
	cfg := machine.TestSystem(machine.COD)
	cfg.Protocol = o.Protocol
	env, err := newEnv(cfg, &plan)
	if err != nil {
		return chaosPointRec{}, err
	}
	tr := armPoint(env, fc, o.BundleDir, injectPanic, fmt.Sprintf("injected chaos-point panic (rate %g)", rate))
	rec := chaosPointRec{Rate: rate, Plan: env.E.Faults.Plan()}
	t4, err := Table4In(env)
	if err != nil {
		return chaosPointRec{}, err
	}
	rec.Table4 = t4.Values
	if o.IncludeT5 {
		t5, err := Table5In(env)
		if err != nil {
			return chaosPointRec{}, err
		}
		rec.Table5 = t5.Values
	}
	// The recovery acceptance gate, per transaction: the env's always-on
	// incremental checker validated every line each faulted transaction
	// touched — and that each repair's penalty was drained into a returned
	// latency — the moment it completed, so a fault the engine failed to
	// recover from is pinned to the transaction that exposed it.
	if err := env.Check.Err(); err != nil {
		return chaosPointRec{}, fmt.Errorf("after recovery: %w", err)
	}
	// End-of-point epoch boundary: one full machine Check on top of the
	// incremental gate (it also runs the cross-agent filing scan the
	// per-line checks skip), and the source of the stale-findings tally.
	found := invariant.Check(env.M)
	if hard := invariant.Hard(found); len(hard) != 0 {
		err := fmt.Errorf("%d hard violations after recovery, first: %v", len(hard), hard[0])
		// The per-transaction gate above did not fire for this damage
		// (cross-line filing, or a sampled-out window), so the recorder's
		// capture did not either — bundle the trace for it here.
		if tr != nil {
			f := invariant.ToTraceFinding(invariant.TxViolation{Op: -1, Core: -1, V: hard[0]})
			path := filepath.Join(o.BundleDir, fmt.Sprintf("repro-%s-%x.json", f.KindName, uint64(f.Line)))
			if werr := trace.WriteFile(path, tr.Bundle(&f)); werr == nil {
				err = fmt.Errorf("%w (repro bundle: %s)", err, path)
			}
		}
		return chaosPointRec{}, err
	}
	rec.StaleFindings = len(found)
	if ns := env.E.Faults.PendingPenaltyNs(); ns != 0 {
		return chaosPointRec{}, fmt.Errorf("%.1f ns of recovery penalty never charged to a transaction", ns)
	}
	rec.Counters = env.E.Faults.Counters()
	rec.FaultEvents = len(env.E.Faults.Events())
	rec.Traffic = env.M.Traffic()
	rec.RemoteReadGBps = remoteReadPoint(env)
	return rec, nil
}

// remoteReadPoint solves the max-min bandwidth share for all cores of
// socket 0 streaming reads from socket 1's memory: each flow crosses the
// (possibly degraded) QPI payload capacity and the remote socket's
// (possibly degraded) sustained DRAM read capacity. The solve goes through
// env.SolveMaxMin so an attached flight recorder captures it for
// bit-identical replay verification.
func remoteReadPoint(env *Env) float64 {
	caps := bwmodel.CapsFor(env.M.Cfg)
	n := env.M.Topo.Die.Cores()
	flows := bwmodel.UniformFlows(n, 1e9, map[int]float64{0: 1, 1: 1})
	alloc := env.SolveMaxMin(flows, []float64{
		caps.QPIReadCap(env.Mode),
		caps.MemReadPerSocket,
	})
	return bwmodel.Sum(alloc)
}
