// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections VI–VIII): each Table*/Fig* function builds the
// machine in the required coherence configuration, runs the placement and
// measurement the paper describes, and returns the results in report form
// together with paper-vs-measured comparisons.
//
// The experiment ids match DESIGN.md's index: table1–table8, fig4–fig10.
//
//hsw:tier harness
package experiments

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/placement"
	"haswellep/internal/topology"
	"haswellep/internal/trace"
	"haswellep/internal/units"
)

// Env is one experiment's machine instance. Every env runs with the
// incremental invariant checker attached (invariant.AttachIncremental,
// triage fidelity): a healthy env validates every 16th transaction's dirty
// set — a violating state persists until repaired, so on the revisited
// working sets the experiments measure it is still caught within a few
// transactions of appearing — while an env whose fault plan actively
// injects validates after every single transaction, pinning any
// unrecovered fault to the exact transaction that exposed it (the chaos
// sweep's per-transaction gate). Findings land in Check; experiments
// consult Check.Err after (or during) a run.
type Env struct {
	Mode machine.SnoopMode
	M    *machine.Machine
	E    *mesif.Engine
	P    *placement.Placer

	// Check records every hard violation the always-on incremental
	// checker finds (and counts stale findings). A healthy engine keeps
	// Check.Err() nil for any workload.
	Check *invariant.Recorder

	// tr is the attached flight recorder, nil until
	// AttachFlightRecorder; SolveMaxMin logs solver invocations into it.
	tr *trace.Recorder

	// lastAlloc is the most recent Alloc result (see lastRegion).
	lastAlloc addr.Region
}

// NewEnv builds a fresh test-system machine in the given mode, running the
// default MESIF protocol.
func NewEnv(mode machine.SnoopMode) *Env {
	env, err := newEnv(machine.TestSystem(mode), nil)
	if err != nil {
		panic(err)
	}
	return env
}

// NewEnvCfg builds an env on an arbitrary validated machine configuration
// — geometry, snoop mode, and coherence protocol (cfg.Protocol) all come
// from cfg instead of being pinned to the test system.
func NewEnvCfg(cfg machine.Config) (*Env, error) {
	return newEnv(cfg, nil)
}

// NewEnvWithFaults builds a test-system machine in the given mode with the
// fault plan installed: the plan's static degradation is folded into the
// machine configuration and its injector is attached to the engine. The
// injector is NOT reset by Fresh, so one env executes one deterministic
// fault schedule across all its measurements.
func NewEnvWithFaults(mode machine.SnoopMode, plan fault.Plan) (*Env, error) {
	return newEnv(machine.TestSystem(mode), &plan)
}

// newEnv is the one construction path: the machine on cfg (degraded by
// plan when one is given), the engine with plan's injector attached,
// placement, and the always-on incremental invariant checker feeding
// env.Check. Engines whose plan actively injects are checked after every
// transaction; all others every 16th — an inert (rate-0) plan is
// documented to behave identically to no injector at all, so it keeps the
// sampled cadence too. Periodic full Checks are disabled (the experiment
// machines cache enough lines that even a rare full Check dominates the
// run) — harnesses that want one run invariant.Check explicitly, as the
// chaos sweep does per point.
func newEnv(cfg machine.Config, plan *fault.Plan) (*Env, error) {
	if plan != nil {
		cfg = plan.Configure(cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	e := mesif.New(m)
	o := invariant.IncrementalOptions{Epoch: invariant.NoEpoch, Sample: 16, Fast: true}
	if plan != nil {
		if e.Faults, err = fault.NewInjector(*plan); err != nil {
			return nil, err
		}
		if plan.Active() {
			o.Sample = 1
		}
	}
	env := &Env{Mode: cfg.Mode, M: m, E: e, P: placement.New(e), Check: &invariant.Recorder{}}
	invariant.AttachIncremental(e, o, env.Check.Record)
	return env, nil
}

// FirstCore returns the first core of a NUMA node, the core the paper's
// measurements use for placement and measurement in each node.
func (env *Env) FirstCore(node int) topology.CoreID {
	return env.M.Topo.CoresOfNode(topology.NodeID(node))[0]
}

// SecondCore returns the second core of a NUMA node.
func (env *Env) SecondCore(node int) topology.CoreID {
	return env.M.Topo.CoresOfNode(topology.NodeID(node))[1]
}

// Alloc reserves a fresh buffer homed on the node.
func (env *Env) Alloc(node int, size int64) addr.Region {
	env.lastAlloc = env.M.MustAlloc(topology.NodeID(node), size)
	return env.lastAlloc
}

// Fresh resets all cached state (placements stay valid).
func (env *Env) Fresh() {
	env.M.Reset()
	env.E.ResetStats()
}

// AttachFlightRecorder attaches a trace flight recorder to the env's
// engine and arms Check to write a repro bundle into dir on the first hard
// violation (Check.BundlePath names it afterwards; Check.Err mentions it).
// capacity bounds the recorder's ring, 0 meaning trace.DefaultCapacity —
// a run longer than the ring still captures a bundle, but a truncated one
// that documents the failure without being replayable. The recorder only
// observes (its digest is its own; engine stats are untouched), so results
// with it attached are byte-identical to results without.
func (env *Env) AttachFlightRecorder(dir string, capacity int) *trace.Recorder {
	tr := trace.Attach(env.E, trace.Options{Capacity: capacity})
	env.Check.CaptureTo(tr, dir)
	env.tr = tr
	return tr
}

// SolveMaxMin runs the multi-flow bandwidth solver and, when a flight
// recorder is attached, logs the invocation so a captured bundle verifies
// the solver's allocations bit-for-bit on replay. Harness code measuring
// bandwidth points must call this instead of bwmodel.MaxMin directly —
// otherwise the solve escapes the capture.
func (env *Env) SolveMaxMin(flows []bwmodel.Flow, caps []float64) []float64 {
	alloc := bwmodel.MaxMin(flows, caps)
	if env.tr != nil {
		env.tr.RecordFlowSolve(flows, caps, alloc)
	}
	return alloc
}

// Standard dataset sizes the point measurements use: comfortably inside the
// target level for the modeled geometries.
const (
	SizeL1  = 16 * units.KiB
	SizeL2  = 160 * units.KiB
	SizeL3  = 8 * units.MiB
	SizeL3n = 4 * units.MiB // per-COD-node L3 working set
	SizeMem = 16 * units.MiB
)

// latencyOf is the common "place, then measure from core" helper; it resets
// the machine first so experiments are independent.
func (env *Env) latencyOf(core topology.CoreID, r addr.Region, place func()) bench.LatencyStat {
	env.Fresh()
	place()
	return bench.Latency(env.E, core, r)
}

// fmtNs formats a nanosecond value like the paper's tables.
func fmtNs(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtGB formats a GB/s value like the paper's tables.
func fmtGB(v float64) string { return fmt.Sprintf("%.1f", v) }

// Source aliases used by the figure code.
const (
	srcMemory        = mesif.SrcMemory
	srcMemoryForward = mesif.SrcMemoryForward
)
