package invariant

import (
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/machine"
)

// The attached checkers run after every sampled transaction, so their
// steady state must be as allocation-free as the transaction path itself:
// the per-checker scratch (core states, core list, L3 flags, the finding
// buffer) is reused across calls, lean mode skips composing stale detail
// strings, and a healthy machine produces no findings to append. These
// guards pin that — an accidental per-call make() or Sprintf in the
// checker costs more than the transactions it validates.

// TestCheckLinesAllocationFree: the incremental triage scan over a
// transaction's dirty set allocates nothing on a healthy machine.
func TestCheckLinesAllocationFree(t *testing.T) {
	m, e := build(t, machine.COD)
	r := m.MustAlloc(0, 64*64)
	base := r.Base.Line()
	remote := m.Topo.CoresOfNode(1)[0]
	for i := 0; i < 64; i++ {
		e.Write(0, base+addr.LineAddr(i))
		e.Read(remote, base+addr.LineAddr(i))
	}

	c := NewFastChecker(m).LeanStale()
	lines := []addr.LineAddr{base, base + 7, base + 63}
	if found := c.CheckLines(lines); len(found) != 0 {
		t.Fatalf("healthy machine has findings: %v", found)
	}

	if avg := testing.AllocsPerRun(100, func() {
		if found := c.CheckLines(lines); found != nil {
			t.Error("findings appeared mid-run")
		}
	}); avg != 0 {
		t.Errorf("triage CheckLines allocates %.1f times per call, want 0", avg)
	}
}

// TestCheckAllAllocationFree: the epoch-boundary sweep over the whole
// machine reuses its gather and sort buffers — after the first sweep has
// sized them, repeat sweeps of a healthy machine allocate nothing.
func TestCheckAllAllocationFree(t *testing.T) {
	m, e := build(t, machine.COD)
	r := m.MustAlloc(0, 2048*64)
	base := r.Base.Line()
	for i := 0; i < 2048; i++ {
		e.Read(0, base+addr.LineAddr(i))
	}

	c := NewChecker(m).LeanStale()
	if found := c.CheckAll(); len(found) != 0 {
		t.Fatalf("healthy machine has findings: %v", found)
	}

	if avg := testing.AllocsPerRun(5, func() {
		if found := c.CheckAll(); found != nil {
			t.Error("findings appeared mid-run")
		}
	}); avg != 0 {
		t.Errorf("epoch CheckAll allocates %.1f times per sweep, want 0", avg)
	}
}

// TestAttachedHookAllocationFree: the whole per-transaction debug-hook
// stack — dirty-set capture, sampled triage check, recorder — adds zero
// allocations to a healthy steady-state transaction.
func TestAttachedHookAllocationFree(t *testing.T) {
	m, e := build(t, machine.COD)
	rec := &Recorder{}
	detach := AttachIncremental(e, IncrementalOptions{Epoch: NoEpoch, Sample: 1, Fast: true}, rec.Record)
	defer detach()

	r := m.MustAlloc(0, 64)
	l := r.Base.Line()
	remote := m.Topo.CoresOfNode(1)[0]
	for i := 0; i < 2; i++ { // warm
		e.Write(0, l)
		e.Read(remote, l)
	}

	if avg := testing.AllocsPerRun(100, func() {
		e.Write(0, l)
		e.Read(remote, l)
	}); avg != 0 {
		t.Errorf("checked write/read cycle allocates %.1f times per cycle, want 0", avg)
	}
	if rec.HardCount != 0 {
		t.Errorf("recorder saw %d hard violations", rec.HardCount)
	}
}
