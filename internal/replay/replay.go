// Package replay re-executes repro bundles recorded by the flight recorder
// (package trace): it rebuilds the machine a bundle describes, re-applies
// the recorded allocations, resets, corruptions, and transactions in order,
// and checks that the replayed run reproduces the recorded digest
// byte-identically and re-detects the triggering invariant finding. A
// ddmin-style shrinker (shrink.go) minimizes a bundle's event stream — and
// optionally its fault schedule — while the finding persists.
//
// Determinism rests on two properties the rest of the repo already
// guarantees: the engine is single-threaded, and the fault injector draws
// every decision from one seeded PRNG stream in transaction order. A replay
// therefore reproduces not just the finding but every latency (integer
// picoseconds) and every counter, which Verify checks with a plain struct
// comparison.
//
//hsw:tier engine
package replay

import (
	"fmt"

	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/trace"
)

// Result is the outcome of one replayed bundle.
type Result struct {
	// Digest summarizes the replayed run exactly like the recording
	// recorder summarized the original; Verify compares them with ==.
	Digest trace.Digest
	// Findings holds every hard violation the replay's per-transaction
	// full-fidelity checker detected, in detection order, followed by
	// any the end-of-replay machine-wide Check adds.
	Findings []trace.Finding
	// Stale counts ClassStale findings (documented imprecision).
	Stale int
}

// Matched reports whether any replayed finding denotes the same failure
// as f (identical kind, class, and line).
func (r Result) Matched(f trace.Finding) bool {
	for _, g := range r.Findings {
		if g.Matches(f) {
			return true
		}
	}
	return false
}

// Build rebuilds the engine a bundle describes: the spec's machine with
// the fault plan's static degradation applied, and a fresh injector for
// the plan attached.
func Build(b *trace.Bundle) (*mesif.Engine, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	cfg := b.Spec.Config()
	if b.Plan != nil {
		cfg = b.Plan.Configure(cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	e := mesif.New(m)
	if b.Plan != nil {
		inj, err := fault.NewInjector(*b.Plan)
		if err != nil {
			return nil, err
		}
		e.Faults = inj
	}
	return e, nil
}

// Run replays the bundle's events against a freshly built machine and
// returns the replayed digest and findings. The replay runs the
// full-fidelity incremental checker after every transaction (the
// recording side may have sampled), so it can detect damage at — or
// earlier than — the transaction the recording pinned. Truncated bundles
// (ring overflow) cannot be replayed and are rejected.
func Run(b *trace.Bundle) (Result, error) {
	if b.Truncated() {
		return Result{}, fmt.Errorf("replay: bundle is truncated (%d events dropped from the ring); it documents the failure but cannot be replayed", b.Overflow)
	}
	e, err := Build(b)
	if err != nil {
		return Result{}, err
	}
	m := e.M
	rec := &invariant.Recorder{}
	detach := invariant.AttachIncremental(e,
		invariant.IncrementalOptions{Epoch: invariant.NoEpoch, Sample: 1}, rec.Record)
	defer detach()
	tr := trace.Attach(e, trace.Options{Capacity: len(b.Events) + 1})
	defer tr.Detach()

	for i, ev := range b.Events {
		switch ev.Kind {
		case trace.EvOp:
			e.WorkingSet = ev.WS
			if _, err := e.Do(ev.Op, ev.Core, ev.Line); err != nil {
				return Result{}, fmt.Errorf("replay: event %d: %w", i, err)
			}
			if ev.Seq != 0 && e.Faults != nil && e.Faults.Seq() != ev.Seq {
				return Result{}, fmt.Errorf("replay: event %d: injector out of sync (recorded seq %d, replayed %d) — the bundle was not recorded from the start of the injector's schedule", i, ev.Seq, e.Faults.Seq())
			}
		case trace.EvAlloc:
			r, err := m.AllocOnNode(ev.Node, ev.Size)
			if err != nil {
				return Result{}, fmt.Errorf("replay: event %d: %w", i, err)
			}
			if ev.Base != 0 && r.Base != ev.Base {
				return Result{}, fmt.Errorf("replay: event %d: allocation diverged (recorded base %#x, replayed %#x)", i, uint64(ev.Base), uint64(r.Base))
			}
		case trace.EvReset:
			m.Reset()
		case trace.EvCorruptDir, trace.EvCorruptL3:
			if err := trace.Apply(m, ev); err != nil {
				return Result{}, fmt.Errorf("replay: event %d: %w", i, err)
			}
		default:
			return Result{}, fmt.Errorf("replay: event %d: unknown kind %v", i, ev.Kind)
		}
	}

	res := Result{Digest: tr.Digest(), Stale: rec.StaleCount}
	for _, tv := range rec.Violations {
		res.Findings = append(res.Findings, invariant.ToTraceFinding(tv))
	}
	// The per-line checker skips one cross-line scan (agent filing); a
	// final machine-wide Check closes that gap for whatever state the
	// replay ended in.
	for _, v := range invariant.Check(m) {
		if v.Class != invariant.ClassViolation {
			continue
		}
		res.Findings = append(res.Findings,
			invariant.ToTraceFinding(invariant.TxViolation{Op: -1, Core: -1, V: v}))
	}
	return res, nil
}

// Verify replays the bundle and demands full fidelity: the replayed
// digest must equal the recorded one byte-for-byte, and — when the bundle
// carries a triggering finding — an identical (kind, class, line) finding
// must reappear.
func Verify(b *trace.Bundle) (Result, error) {
	res, err := Run(b)
	if err != nil {
		return res, err
	}
	if res.Digest != b.Digest {
		return res, fmt.Errorf("replay: digest mismatch:\n recorded: %+v\n replayed: %+v", b.Digest, res.Digest)
	}
	if err := VerifyFlowSolves(b); err != nil {
		return res, err
	}
	if b.Finding != nil && !res.Matched(*b.Finding) {
		return res, fmt.Errorf("replay: recorded finding did not reappear: %v (replay found %d hard finding(s))", *b.Finding, len(res.Findings))
	}
	return res, nil
}
