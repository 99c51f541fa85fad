package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/experiments"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/report"
	"haswellep/internal/topology"
)

// paper-tables: one single-threaded pass over Tables III, IV and VIII —
// what the simulator is for. An op is one table.

// setupReps is how many set-up samples a workload takes up front (for
// whatif-hot: how many restarts).
const setupReps = 15

// tableOut is one table op's output.
type tableOut struct {
	name string
	text string // the rendered table
	cmps []report.Comparison
	err  error // the experiment's error, or a hard invariant finding
}

// sum digests the output bit for bit: the rendered table plus every
// comparison's label and measured float64 bits.
func (o tableOut) sum() [32]byte {
	h := sha256.New()
	h.Write([]byte(o.text))
	var b [8]byte
	for _, c := range o.cmps {
		h.Write([]byte(c.Label))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Measured))
		h.Write(b[:])
	}
	var s [32]byte
	h.Sum(s[:0])
	return s
}

// tableCheck fails a table op that returned an error (or a hard invariant
// finding) or whose output differs bit for bit from the same table's
// first output in the run.
type tableCheck struct{ first map[string][32]byte }

func (c *tableCheck) ok(o tableOut) (bool, string) {
	if o.err != nil {
		return false, fmt.Sprintf("%s: %v", o.name, o.err)
	}
	s := o.sum()
	ref, seen := c.first[o.name]
	if !seen {
		if c.first == nil {
			c.first = map[string][32]byte{}
		}
		c.first[o.name] = s
		return true, ""
	}
	if s != ref {
		return false, fmt.Sprintf("%s: output differs from the run's first repetition", o.name)
	}
	return true, ""
}

// tableOps are the three table ops on a benchmark-built COD env (Table IV
// runs on it; Tables III and VIII build their own).
var tableOps = []struct {
	name string
	run  func(env *experiments.Env) tableOut
}{
	{"table3", func(*experiments.Env) tableOut {
		res := experiments.Table3()
		return tableOut{text: res.Table.String(), cmps: res.Comparisons}
	}},
	{"table4", func(env *experiments.Env) tableOut {
		res, err := experiments.Table4In(env)
		if err == nil {
			err = env.Check.Err()
		}
		if err != nil {
			return tableOut{err: err}
		}
		return tableOut{text: res.Table.String(), cmps: res.Comparisons}
	}},
	{"table8", func(*experiments.Env) tableOut {
		res := experiments.Table8()
		return tableOut{text: res.Table.String(), cmps: res.Comparisons}
	}},
}

// tablePass runs the three table ops once on env, returning their outputs
// and wall times. A forced collection after each op (outside its timing,
// env still referenced) samples the live heap.
func tablePass(env *experiments.Env, heap *float64) ([]tableOut, []time.Duration) {
	outs := make([]tableOut, len(tableOps))
	durs := make([]time.Duration, len(tableOps))
	for i, op := range tableOps {
		durs[i] = timed(func() { outs[i] = op.run(env) })
		outs[i].name = op.name
		*heap = max(*heap, liveHeapMiB())
	}
	runtime.KeepAlive(env)
	return outs, durs
}

// newCODEnv builds the COD env Table IV runs on and returns its set-up
// time, measured after a collection.
func newCODEnv() (*experiments.Env, float64) {
	runtime.GC()
	var env *experiments.Env
	d := timed(func() { env = experiments.NewEnv(machine.COD) })
	return env, d.Seconds()
}

// deviation returns the mean and the largest |deviation| in percent.
func deviation(cmps []report.Comparison) (mean, worst float64) {
	for _, c := range cmps {
		d := math.Abs(c.DeviationPct())
		mean += d
		worst = max(worst, d)
	}
	return mean / float64(len(cmps)), worst
}

// measureTables runs the pass at least twice, and again while half a
// pass's time of budget is left. Set-up is sampled setupReps times up
// front and once more before every pass, so its samples spread over the
// run.
func measureTables(r *run) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		_, d := newCODEnv()
		setups = append(setups, d)
	}
	var check tableCheck
	var heap float64
	var passes []float64
	for pass := 0; ; pass++ {
		env, d := newCODEnv()
		setups = append(setups, d)
		outs, durs := tablePass(env, &heap)
		for _, o := range outs {
			ok, why := check.ok(o)
			r.op(ok, why)
		}
		if pass == 0 {
			var all []report.Comparison
			for _, o := range outs {
				s := o.sum()
				r.digest.Write(s[:])
				all = append(all, o.cmps...)
			}
			if len(all) != 62 || len(outs[1].cmps) != 16 {
				return fmt.Errorf("expected 62 published cells (16 in Table IV), got %d (%d)", len(all), len(outs[1].cmps))
			}
			mean, _ := deviation(all)
			_, heldout := deviation(outs[1].cmps)
			fmt.Fprintf(r.out, "fidelity: paper_dev_mean_pct %.6g (62 cells), heldout_dev_max_pct %.6g (Table IV)\n", mean, heldout)
		}
		wall := sum(seconds(durs))
		passes = append(passes, wall)
		fmt.Fprintf(r.out, "pass %d: table3 %.3fs table4 %.3fs table8 %.3fs\n",
			pass, durs[0].Seconds(), durs[1].Seconds(), durs[2].Seconds())
		if pass >= 1 && r.left() < time.Duration(wall*float64(time.Second))/2 {
			break
		}
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = median(passes)
	r.metrics["live_heap_mib"] = heap
	fmt.Fprintf(r.out, "passes %d, 3 table ops each; set-up samples %d\n", len(passes), len(setups))
	return nil
}

// traceTables is the traced run: one untraced pass of the real entry
// points, then one traced pass that rebuilds each table from public
// constructors (Table3 and Table8 build their engines internally) with a
// probe on every engine, under a CPU profile. A rebuilt table whose values
// differ from the real one fails its op.
func traceTables(r *run) error {
	var heap float64
	env, _ := newCODEnv()
	real, realDurs := tablePass(env, &heap)
	var check tableCheck
	for _, o := range real {
		ok, why := check.ok(o)
		r.op(ok, why)
		s := o.sum()
		r.digest.Write(s[:])
	}

	t := newTracer()
	newEnv := func(op string, mode machine.SnoopMode) *experiments.Env {
		var e *experiments.Env
		t.do("experiments:env", op, t.root(op), func() { e = experiments.NewEnv(mode) })
		attachProbe(e.E, t.probe(op))
		return e
	}
	stop, err := startProfile(r, "paper-tables")
	if err != nil {
		return err
	}
	rebuilt := make([][]float64, 3)
	rebuiltDurs := make([]time.Duration, 3)
	rebuiltDurs[0] = timed(func() {
		t.do("mesif:table3", "table3", 0, func() {
			rebuilt[0] = rebuildTable3(func(m machine.SnoopMode) *experiments.Env { return newEnv("table3", m) })
		})
	})
	var env4 *experiments.Env
	rebuiltDurs[1] = timed(func() {
		t.do("mesif:table4", "table4", 0, func() {
			env4 = newEnv("table4", machine.COD)
			res, err := experiments.Table4In(env4)
			if err == nil {
				err = env4.Check.Err()
			}
			if err != nil {
				rebuilt[1] = []float64{math.NaN()}
				return
			}
			for _, c := range res.Comparisons {
				rebuilt[1] = append(rebuilt[1], c.Measured)
			}
		})
	})
	// The full machine check is not part of the table; it is an op of its
	// own, on the machine Table IV left behind.
	t.do("invariant:full_check", "table4-check", 0, func() {
		if hard := invariant.Hard(invariant.Check(env4.M)); len(hard) != 0 {
			rebuilt[1] = []float64{math.NaN()}
		}
	})
	rebuiltDurs[2] = timed(func() {
		t.do("mesif:table8", "table8", 0, func() { rebuilt[2] = rebuildTable8(newEnv("table8", machine.COD)) })
	})
	fold, err := stop()
	if err != nil {
		return err
	}
	for i, o := range real {
		same := len(rebuilt[i]) == len(o.cmps)
		for j := 0; same && j < len(o.cmps); j++ {
			same = math.Float64bits(rebuilt[i][j]) == math.Float64bits(o.cmps[j].Measured)
		}
		r.op(same, "rebuilt "+o.name+" differs from the real one")
		fmt.Fprintf(r.out, "op %s: real %.3fs rebuilt+traced %.3fs\n", o.name, realDurs[i].Seconds(), rebuiltDurs[i].Seconds())
	}
	ops, err := t.report(r, "paper-tables", fold)
	if err != nil {
		return err
	}
	r.setEngine(t, ops)
	r.setLayers(ops, "mesif:table3", "mesif:table4", "invariant:full_check", "mesif:table8")
	r.setCPU(fold)
	r.metrics["experiments.env_build_ms"] = median(t.durationsMs("experiments:env"))
	r.metrics["invariant.full_check_ms"] = median(t.durationsMs("invariant:full_check"))
	// No recorder, fault injector or farm on this path.
	r.bypassed("trace.events", "fault.injected", "fault.retries", "farm.busy_share")
	r.setOverhead(sum2(realDurs), sum2(rebuiltDurs))
	fmt.Fprintf(r.out, "cpu top packages:%s\n", topPackages(fold, 8))
	return nil
}

// sum2 adds durations.
func sum2(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// rebuildTable3 redoes experiments.Table3's measurements from public
// constructors and returns the measured values in the order of its
// comparisons (row-major over rows × columns).
func rebuildTable3(newEnv func(machine.SnoopMode) *experiments.Env) []float64 {
	cols := []struct {
		mode machine.SnoopMode
		core topology.CoreID
	}{{machine.SourceSnoop, 0}, {machine.HomeSnoop, 0}, {machine.COD, 0}, {machine.COD, 6}, {machine.COD, 8}}
	values := make([][6]float64, len(cols))
	for ci, col := range cols {
		env := newEnv(col.mode)
		core := col.core
		local := int(env.M.Topo.NodeOfCore(core))
		remote1, remote2 := 1, 1
		if col.mode == machine.COD {
			remote1, remote2 = 2, 3
		}
		l3 := func(node int, placer topology.CoreID) float64 {
			reg := env.Alloc(node, experiments.SizeL3n)
			env.Fresh()
			env.P.Exclusive(placer, reg)
			return bench.Latency(env.E, core, reg).MeanNs
		}
		mem := func(node int, owner topology.CoreID) float64 {
			reg := env.Alloc(node, experiments.SizeMem)
			env.Fresh()
			env.P.Modified(owner, reg)
			env.P.FlushAll(owner, reg)
			return bench.Latency(env.E, core, reg).MeanNs
		}
		values[ci] = [6]float64{
			l3(local, core), l3(remote1, env.FirstCore(remote1)), l3(remote2, env.FirstCore(remote2)),
			mem(local, core), mem(remote1, env.FirstCore(remote1)), mem(remote2, env.FirstCore(remote2)),
		}
	}
	var out []float64
	for ri := 0; ri < 6; ri++ {
		for ci := range cols {
			out = append(out, values[ci][ri])
		}
	}
	return out
}

// rebuildTable8 redoes experiments.Table8's measurements from public
// constructors and returns the compared cells (1–4 cores per row).
func rebuildTable8(env *experiments.Env) []float64 {
	caps := bwmodel.CapsFor(env.M.Cfg)
	rows := []struct {
		node int
		cap  float64
	}{
		{0, caps.MemReadPerNode}, {1, caps.CODInterNodeCap(1)},
		{2, caps.CODInterNodeCap(2)}, {3, caps.CODInterNodeCap(3)},
	}
	var out []float64
	for _, row := range rows {
		reg := env.Alloc(row.node, experiments.SizeMem)
		placer := env.FirstCore(row.node)
		if placer == 0 {
			placer = env.SecondCore(row.node)
		}
		env.Fresh()
		env.P.Modified(placer, reg)
		env.P.FlushAll(placer, reg)
		demand := bwmodel.ReadStream(env.E, 0, reg, bwmodel.AVX256, bwmodel.ConcurrencyFor(env.Mode)).GBps
		for n := 1; n <= 4; n++ {
			out = append(out, bwmodel.Aggregate(n, demand, row.cap, 1))
		}
	}
	return out
}
