package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"haswellep/internal/bwmodel"
	"haswellep/internal/experiments"
	"haswellep/internal/farm"
	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
)

// chaos-campaign: the quick chaos sweep (Table IV only) for one seeded
// fault plan at rate 0 and three nonzero rates, on two farm shards with a
// checkpoint journal and a bundle directory, as CI's hswchaos runs it. An
// op is one point. The campaign is repeated, each time on a fresh
// checkpoint, while the budget lasts.

var chaosRates = []float64{0, 0.01, 0.02, 0.05}

const chaosShards = 2

// chaosRec is one point's simulated result: every number the campaign
// reports for it.
type chaosRec struct {
	Table4         [4][4]float64        `json:"table4"`
	Counters       fault.Counters       `json:"counters"`
	FaultEvents    int                  `json:"fault_events"`
	StaleFindings  int                  `json:"stale_findings"`
	Traffic        machine.TrafficStats `json:"traffic"`
	RemoteReadGBps float64              `json:"remote_read_gbps"`
}

func recOf(p experiments.ChaosPoint) chaosRec {
	return chaosRec{p.Table4.Values, p.Counters, p.FaultEvents, p.StaleFindings, p.Traffic, p.RemoteReadGBps}
}

// sum digests the result; encoding/json writes floats in shortest
// round-trip form, so equal digests mean bit-identical numbers.
func (c chaosRec) sum() [32]byte {
	b, _ := json.Marshal(c) // plain numbers and arrays: cannot fail
	return sha256.Sum256(b)
}

// campaign is one timed run of the real chaos sweep.
type campaign struct {
	wall    time.Duration
	done    []time.Duration // each point's completion, from campaign start
	points  map[float64]experiments.ChaosPoint
	skipped int
}

func runCampaign(r *run, name string) (campaign, error) {
	dir := r.path(name)
	var mu sync.Mutex
	c := campaign{points: map[float64]experiments.ChaosPoint{}}
	t0 := time.Now()
	res, err := experiments.ChaosSweepOpts(r.seed, chaosRates, experiments.ChaosOptions{
		Shards:         chaosShards,
		CheckpointPath: filepath.Join(dir, "checkpoint.journal"),
		BundleDir:      filepath.Join(dir, "bundles"),
		Tolerate:       true,
		OnPointDone: func(string, bool) {
			mu.Lock()
			c.done = append(c.done, time.Since(t0))
			mu.Unlock()
		},
	})
	c.wall = time.Since(t0)
	if err != nil {
		return c, err
	}
	for _, p := range res.Points {
		c.points[p.Rate] = p
	}
	c.skipped = res.Farm.Skipped
	return c, nil
}

// judge books one op per rate: a point fails when it degraded or when its
// result differs from the same rate's result in the first campaign.
func (c campaign) judge(r *run, first map[float64][32]byte) {
	for _, rate := range chaosRates {
		p, ok := c.points[rate]
		if !ok {
			r.op(false, fmt.Sprintf("chaos point rate %g degraded", rate))
			continue
		}
		s := recOf(p).sum()
		ref, seen := first[rate]
		if !seen {
			first[rate] = s
			r.digest.Write(s[:])
		}
		r.op(!seen || s == ref, fmt.Sprintf("chaos point rate %g differs from the first campaign", rate))
	}
}

// chaosSetup times what a campaign does before its first point can run:
// open a fresh checkpoint journal and build one faulted COD env. It
// returns the set-up time, measured after a collection, and the env.
func chaosSetup(r *run, name string) (float64, *experiments.Env, error) {
	runtime.GC()
	var env *experiments.Env
	var err error
	d := timed(func() {
		var j *farm.Journal
		j, err = farm.OpenJournal(r.path(name, "checkpoint.journal"), "perfbench/setup")
		if err == nil {
			err = j.Close()
		}
		if err == nil {
			env, err = experiments.NewEnvWithFaults(machine.COD, experiments.ChaosPlanAt(r.seed, chaosRates[1]))
		}
	})
	return d.Seconds(), env, err
}

// measureChaos runs the campaign at least twice, and again while half a
// campaign's time of budget is left. Set-up is sampled setupReps times up
// front and once more before every campaign; the live heap is sampled with
// a set-up env referenced.
func measureChaos(r *run) error {
	var setups []float64
	var env *experiments.Env
	for i := 0; i < setupReps; i++ {
		d, e, err := chaosSetup(r, fmt.Sprintf("setup%d", i))
		if err != nil {
			return err
		}
		setups = append(setups, d)
		env = e
	}
	heap := liveHeapMiB()
	runtime.KeepAlive(env)
	first := map[float64][32]byte{}
	var walls []float64
	for i := 0; ; i++ {
		d, _, err := chaosSetup(r, fmt.Sprintf("setup-c%d", i))
		if err != nil {
			return err
		}
		setups = append(setups, d)
		c, err := runCampaign(r, fmt.Sprintf("campaign%d", i))
		if err != nil {
			return err
		}
		c.judge(r, first)
		heap = max(heap, liveHeapMiB())
		walls = append(walls, c.wall.Seconds())
		if p0, ok := c.points[0]; ok && i == 0 {
			mean, worst := deviation(p0.Table4.Comparisons)
			fmt.Fprintf(r.out, "fidelity: rate-0 Table IV paper_dev_mean_pct %.6g, heldout_dev_max_pct %.6g\n", mean, worst)
		}
		fmt.Fprintf(r.out, "campaign %d: %.3fs, %d points, %d skipped, completions %v\n",
			i, c.wall.Seconds(), len(c.points), c.skipped, c.done)
		if i >= 1 && r.left() < c.wall/2 {
			break
		}
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = median(walls)
	r.metrics["live_heap_mib"] = heap
	fmt.Fprintf(r.out, "campaigns %d (rates %v, shards %d); set-up samples %d\n",
		len(walls), chaosRates, chaosShards, len(setups))
	return nil
}

// tracedRec is a rebuilt point's result plus what the traced run measures
// around it.
type tracedRec struct {
	Sim             chaosRec `json:"sim"`
	TraceEvents     uint64   `json:"trace_events"`
	TraceOverflowed uint64   `json:"trace_overflowed"`
}

// traceChaos is the traced run: one real campaign, then the same campaign
// rebuilt from public constructors — per point NewEnvWithFaults +
// AttachFlightRecorder + Table4In + invariant.Check + the remote-read
// solve, under farm.Run with a checkpoint journal — with a probe on every
// engine, under a CPU profile. A rebuilt point whose result differs from
// the real one fails its op.
func traceChaos(r *run) error {
	real, err := runCampaign(r, "real")
	if err != nil {
		return err
	}
	first := map[float64][32]byte{}
	real.judge(r, first)

	t := newTracer()
	stop, err := startProfile(r, "chaos-campaign")
	if err != nil {
		return err
	}
	journal, err := farm.OpenJournal(r.path("rebuilt", "checkpoint.journal"), fmt.Sprintf("perfbench/chaos seed=%d", r.seed))
	if err != nil {
		return err
	}
	bundles := r.path("rebuilt", "bundles")
	var results []farm.Result[tracedRec]
	var runErr error
	t0 := time.Now()
	t.do("farm:campaign", "campaign", 0, func() {
		results, runErr = farm.Run(context.Background(), farm.Options{Shards: chaosShards, Journal: journal}, chaosRates,
			func(i int, rate float64) string { return fmt.Sprintf("%03d:rate=%g", i, rate) },
			func(c *farm.Ctx, rate float64) (rec tracedRec, err error) {
				t.do("farm:point", c.Key, t.root("campaign"), func() { rec, err = tracedPoint(t, c.Key, r.seed, rate, bundles) })
				return rec, err
			})
	})
	rebuiltWall := time.Since(t0)
	if err := journal.Close(); err != nil {
		return err
	}
	fold, err := stop()
	if err != nil {
		return err
	}
	if results == nil {
		return runErr
	}

	var events, overflowed, injected, retries uint64
	for i, res := range results {
		rate := chaosRates[i]
		if res.Failure != nil {
			r.op(false, fmt.Sprintf("rebuilt chaos point rate %g: %v", rate, res.Failure))
			continue
		}
		rec := res.Value
		r.op(rec.Sim.sum() == first[rate], fmt.Sprintf("rebuilt chaos point rate %g differs from the real one", rate))
		events += rec.TraceEvents
		overflowed += rec.TraceOverflowed
		for _, n := range rec.Sim.Counters.Injected {
			injected += n
		}
		retries += rec.Sim.Counters.Retries
	}
	fmt.Fprintf(r.out, "campaign: real %.3fs rebuilt+traced %.3fs; real point completions %v\n",
		real.wall.Seconds(), rebuiltWall.Seconds(), real.done)

	ops, err := t.report(r, "chaos-campaign", fold)
	if err != nil {
		return err
	}
	pointMs := t.durationsMs("farm:point")
	r.setEngine(t, ops)
	r.setLayers(ops, "farm:point")
	r.setCPU(fold)
	r.metrics["invariant.full_check_ms"] = median(t.durationsMs("invariant:full_check"))
	r.metrics["experiments.env_build_ms"] = median(t.durationsMs("experiments:env"))
	r.metrics["trace.events"] = float64(events)
	r.metrics["fault.injected"] = float64(injected)
	r.metrics["fault.retries"] = float64(retries)
	r.metrics["farm.busy_share"] = sum(pointMs) / 1e3 / (rebuiltWall.Seconds() * chaosShards)
	fmt.Fprintf(r.out, "detail: farm.point_ms_p50 %.6g farm.point_ms_max %.6g trace.overflowed %d\n",
		median(pointMs), quantile(pointMs, 1), overflowed)
	r.setOverhead(real.wall, rebuiltWall)
	fmt.Fprintf(r.out, "cpu top packages:%s\n", topPackages(fold, 8))
	return nil
}

// tracedPoint rebuilds one chaos point (the quick form: Table IV only) the
// way the sweep's point function runs it on a fresh engine.
func tracedPoint(t *tracer, op string, seed int64, rate float64, bundles string) (tracedRec, error) {
	parent := t.root(op)
	var rec tracedRec
	var env *experiments.Env
	var err error
	t.do("experiments:env", op, parent, func() {
		env, err = experiments.NewEnvWithFaults(machine.COD, experiments.ChaosPlanAt(seed, rate))
	})
	if err != nil {
		return rec, err
	}
	tr := env.AttachFlightRecorder(bundles, 0)
	defer tr.Detach()
	attachProbe(env.E, t.probe(op))
	var res experiments.MatrixResult
	t.do("mesif:table4", op, parent, func() { res, err = experiments.Table4In(env) })
	if err == nil {
		err = env.Check.Err()
	}
	if err != nil {
		return rec, err
	}
	rec.Sim.Table4 = res.Values
	var found []invariant.Violation
	t.do("invariant:full_check", op, parent, func() { found = invariant.Check(env.M) })
	if hard := invariant.Hard(found); len(hard) != 0 {
		return rec, fmt.Errorf("%d hard violations after recovery, first: %v", len(hard), hard[0])
	}
	if ns := env.E.Faults.PendingPenaltyNs(); ns != 0 {
		return rec, fmt.Errorf("%.1f ns of recovery penalty never charged", ns)
	}
	rec.Sim.StaleFindings = len(found)
	rec.Sim.Counters = env.E.Faults.Counters()
	rec.Sim.FaultEvents = len(env.E.Faults.Events())
	rec.Sim.Traffic = env.M.Traffic()
	t.do("bwmodel:remote_read", op, parent, func() {
		caps := bwmodel.CapsFor(env.M.Cfg)
		flows := bwmodel.UniformFlows(env.M.Topo.Die.Cores(), 1e9, map[int]float64{0: 1, 1: 1})
		rec.Sim.RemoteReadGBps = bwmodel.Sum(env.SolveMaxMin(flows, []float64{caps.QPIReadCap(env.Mode), caps.MemReadPerSocket}))
	})
	rec.TraceEvents, rec.TraceOverflowed = tr.Total(), tr.Overflowed()
	return rec, nil
}
