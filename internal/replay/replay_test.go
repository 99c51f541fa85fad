package replay

import (
	"reflect"
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/directory"
	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/trace"
)

// capture records a seeded failing run and loads its bundle.
func capture(t *testing.T, seed int64, nops int) *trace.Bundle {
	t.Helper()
	path, err := RecordSeededViolation(t.TempDir(), seed, nops)
	if err != nil {
		t.Fatalf("RecordSeededViolation: %v", err)
	}
	b, err := trace.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if b.Finding == nil {
		t.Fatalf("captured bundle carries no finding")
	}
	return b
}

// TestReplayDeterminism: two replays of the same bundle are byte-identical
// on every counter and the exact (picosecond-integer) latency sum, and
// both match the digest recorded at capture time.
func TestReplayDeterminism(t *testing.T) {
	b := capture(t, 21, 300)
	first, err := Run(b)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	second, err := Run(b)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if first.Digest != second.Digest {
		t.Errorf("replays disagree:\n first: %+v\n second: %+v", first.Digest, second.Digest)
	}
	if !reflect.DeepEqual(first.Findings, second.Findings) {
		t.Errorf("replayed findings disagree:\n first: %v\n second: %v", first.Findings, second.Findings)
	}
	if first.Digest != b.Digest {
		t.Errorf("replay digest differs from recorded digest:\n recorded: %+v\n replayed: %+v", b.Digest, first.Digest)
	}
	if !first.Matched(*b.Finding) {
		t.Errorf("replay did not reproduce the finding %v; got %v", *b.Finding, first.Findings)
	}
	if _, err := Verify(b); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestShrinkLongTrace is the acceptance criterion: a failing trace of more
// than 1000 transactions minimizes to a handful of events with the finding
// preserved, and the minimized bundle verifies on its own.
func TestShrinkLongTrace(t *testing.T) {
	b := capture(t, 42, 1200)
	if ops := b.Ops(); ops < 1000 {
		t.Fatalf("captured trace has only %d ops, want >= 1000", ops)
	}
	min, st, err := Shrink(b)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if len(min.Events) > 20 {
		t.Errorf("minimized to %d events, want <= 20", len(min.Events))
	}
	if !min.Finding.Matches(*b.Finding) {
		t.Errorf("shrink changed the finding: %v -> %v", *b.Finding, *min.Finding)
	}
	if _, err := Verify(min); err != nil {
		t.Errorf("minimized bundle does not verify: %v", err)
	}
	min2, pst, err := ShrinkPlan(min)
	if err != nil {
		t.Fatalf("ShrinkPlan: %v", err)
	}
	// The manufactured violation is injector-independent, so the whole
	// fault schedule must shrink away.
	if min2.Plan != nil {
		t.Errorf("plan survived shrinking (%d fields zeroed): %+v", pst.PlanFieldsZeroed, *min2.Plan)
	}
	if _, err := Verify(min2); err != nil {
		t.Errorf("plan-shrunk bundle does not verify: %v", err)
	}
	t.Logf("shrunk %d -> %d events in %d+%d replays", st.FromEvents, len(min2.Events), st.Replays, pst.Replays)
}

// TestFaultedDepth5SweepCapture drives the fuzz/sweep-rig usage pattern:
// depth-5 action sequences over a small alphabet on a faulted COD machine,
// with a flush-based reset and recorder rebaseline between sequences. A
// violation manufactured mid-sweep must capture a bundle holding only the
// current sequence (the baseline mechanism discards completed ones), and
// the bundle must replay to the identical finding.
func TestFaultedDepth5SweepCapture(t *testing.T) {
	cfg := machine.TestSystem(machine.COD)
	cfg.Sockets = 1
	plan := fault.Uniform(0x5EEDFA, 0.3)
	m := machine.MustNew(plan.Configure(cfg))
	e := mesif.New(m)
	inj := fault.MustInjector(plan)
	e.Faults = inj

	tr := trace.Attach(e, trace.Options{Capacity: 1 << 12})
	defer tr.Detach()
	rec := &invariant.Recorder{}
	detach := invariant.AttachIncremental(e,
		invariant.IncrementalOptions{Epoch: invariant.NoEpoch, Sample: 1}, rec.Record)
	defer detach()
	dir := t.TempDir()
	rec.CaptureTo(tr, dir)

	lines := []addr.LineAddr{
		m.MustAlloc(0, addr.LineSize).Base.Line(),
		m.MustAlloc(1, addr.LineSize).Base.Line(),
	}
	if err := tr.SetBaseline(); err != nil {
		t.Fatalf("SetBaseline: %v", err)
	}
	cores := []topology.CoreID{m.Topo.CoresOfNode(0)[0], m.Topo.CoresOfNode(1)[0]}
	type action struct {
		op   mesif.Op
		core topology.CoreID
		line addr.LineAddr
	}
	var alphabet []action
	for _, op := range []mesif.Op{mesif.OpRead, mesif.OpWrite} {
		for _, c := range cores {
			for _, l := range lines {
				alphabet = append(alphabet, action{op, c, l})
			}
		}
	}

	const depth = 5
	total := 1
	for i := 0; i < depth; i++ {
		total *= len(alphabet)
	}
	sabotageAt := total / 2
	for seq := 0; seq < total; seq++ {
		idx := seq
		for d := 0; d < depth; d++ {
			a := alphabet[idx%len(alphabet)]
			idx /= len(alphabet)
			if _, err := e.Do(a.op, a.core, a.line); err != nil {
				t.Fatalf("sequence %d: %v", seq, err)
			}
		}
		if err := rec.Err(); err != nil {
			t.Fatalf("sequence %d violated without sabotage: %v", seq, err)
		}
		if seq == sabotageAt {
			victim := lines[1] // homed on node 1
			if _, err := e.Do(mesif.OpRead, cores[0], victim); err != nil {
				t.Fatal(err)
			}
			if err := tr.CorruptDirectory(victim, directory.RemoteInvalid); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Do(mesif.OpRead, cores[0], victim); err != nil {
				t.Fatal(err)
			}
			break
		}
		// Rig-style reset: flush everything, reseed the injector, drop
		// the completed sequence from the recorder.
		for _, l := range lines {
			if _, err := e.Do(mesif.OpFlush, cores[0], l); err != nil {
				t.Fatal(err)
			}
		}
		inj.Reset()
		tr.ResetToBaseline()
		rec.Reset()
	}

	if rec.BundlePath == "" {
		t.Fatalf("no bundle captured (BundleErr: %v, HardCount: %d)", rec.BundleErr, rec.HardCount)
	}
	b, err := trace.ReadFile(rec.BundlePath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Baseline trimming: 2 alloc events + one depth-5 sequence + the 3
	// sabotage events, not the tens of thousands of swept transactions.
	if len(b.Events) > 2+depth+3 {
		t.Errorf("bundle holds %d events; rebaselining should have trimmed it to <= %d", len(b.Events), 2+depth+3)
	}
	res, err := Verify(b)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Matched(*b.Finding) {
		t.Errorf("replay findings %v do not include %v", res.Findings, *b.Finding)
	}
}

// TestTruncatedBundleRefused: a ring that overflowed yields a bundle that
// documents the failure but refuses replay.
func TestTruncatedBundleRefused(t *testing.T) {
	m := machine.MustNew(machine.TestSystem(machine.SourceSnoop))
	e := mesif.New(m)
	tr := trace.Attach(e, trace.Options{Capacity: 4})
	defer tr.Detach()
	l := m.MustAlloc(0, addr.LineSize).Base.Line()
	for i := 0; i < 10; i++ {
		if _, err := e.Do(mesif.OpRead, 0, l); err != nil {
			t.Fatal(err)
		}
	}
	b := tr.Bundle(nil)
	if !b.Truncated() {
		t.Fatalf("bundle not marked truncated: overflow=%d", b.Overflow)
	}
	if _, err := Run(b); err == nil {
		t.Errorf("truncated bundle replayed without error")
	}
}

// TestAllocDivergenceDetected: a bundle whose recorded allocation base
// cannot be reproduced fails loudly instead of replaying garbage.
func TestAllocDivergenceDetected(t *testing.T) {
	b := capture(t, 5, 20)
	for i := range b.Events {
		if b.Events[i].Kind == trace.EvAlloc {
			b.Events[i].Base += addr.PAddr(addr.LineSize)
			break
		}
	}
	if _, err := Run(b); err == nil {
		t.Errorf("diverged allocation base accepted")
	}
}
