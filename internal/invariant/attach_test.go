package invariant

import (
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// TestAttachChainsExistingHook is the regression test for the hook-clobber
// bug: Attach used to overwrite any AfterTransaction hook already installed
// on the engine, silently disabling it. Both hooks must fire for every
// transaction, and detaching must restore the original hook.
func TestAttachChainsExistingHook(t *testing.T) {
	m, e := build(t, machine.SourceSnoop)
	l0 := m.MustAlloc(0, 64).Lines()[0]

	var order []string
	e.AfterTransaction = func(op mesif.Op, core topology.CoreID, l addr.LineAddr) {
		order = append(order, "existing")
	}
	reports := 0
	detach := Attach(e, func(mesif.Op, topology.CoreID, addr.LineAddr, []Violation) {
		reports++
	})

	e.Read(0, l0)
	if len(order) != 1 {
		t.Fatalf("pre-existing hook fired %d times for one transaction; Attach clobbered it", len(order))
	}
	if reports != 0 {
		t.Fatalf("clean transaction produced %d reports", reports)
	}

	// Corrupt another core's cache so the checker has something to report;
	// the existing hook must keep firing alongside the report.
	l1 := m.MustAlloc(0, 64).Lines()[0]
	m.Core(1).L1D.Insert(cache.Line{Addr: l1, State: cache.Modified})
	e.Read(0, l0)
	if reports == 0 {
		t.Fatalf("corruption not reported by the chained checker hook")
	}
	if len(order) != 2 {
		t.Fatalf("pre-existing hook fired %d times over two transactions", len(order))
	}

	detach()
	e.Read(0, l0)
	if len(order) != 3 {
		t.Fatalf("detach removed the pre-existing hook: fired %d times over three transactions", len(order))
	}
	if reports != 1 {
		t.Fatalf("checker hook still firing after detach (%d reports)", reports)
	}
}

// TestAttachIncremental verifies the incremental hook end to end: corruption
// on a line the next transaction touches is caught immediately by the
// dirty-set check, corruption on an untouched line waits for (and is caught
// by) the epoch full Check, and detaching disables dirty tracking again.
func TestAttachIncremental(t *testing.T) {
	m, e := build(t, machine.SourceSnoop)
	l0 := m.MustAlloc(0, 64).Lines()[0]
	l1 := m.MustAlloc(0, 64).Lines()[0]

	rec := &Recorder{}
	const epoch = 4
	detach := AttachIncremental(e, IncrementalOptions{Epoch: epoch}, rec.Record)

	e.Read(0, l0)
	if rec.HardCount != 0 {
		t.Fatalf("clean transaction recorded violations: %v", rec.Violations)
	}

	// Corrupt the line the next transaction requests: the per-line check
	// must catch it without waiting for an epoch.
	m.Core(1).L1D.Insert(cache.Line{Addr: l0, State: cache.Modified})
	e.Read(0, l0)
	if rec.HardCount == 0 {
		t.Fatalf("corruption on a dirty line not caught by the incremental check")
	}
	if err := rec.Err(); err == nil {
		t.Fatalf("Recorder.Err nil with %d hard violations", rec.HardCount)
	}

	// Repair, then corrupt a line no transaction touches: only the epoch
	// full Check can see it. Two transactions have run since the attach,
	// so transaction 3 is incremental-only (must stay silent about l1) and
	// transaction 4 hits the epoch boundary (must report).
	m.Core(1).L1D.Invalidate(l0)
	rec.Reset()
	m.Core(1).L1D.Insert(cache.Line{Addr: l1, State: cache.Modified})
	e.Read(0, l0)
	if rec.HardCount != 0 {
		t.Fatalf("off-dirty corruption reported before the epoch boundary: %v", rec.Violations)
	}
	e.Read(0, l0)
	if rec.HardCount == 0 {
		t.Fatalf("epoch full Check missed corruption on an untouched line")
	}

	m.Core(1).L1D.Invalidate(l1)
	detach()
	rec.Reset()
	e.Read(0, l0)
	if rec.HardCount != 0 || rec.StaleCount != 0 {
		t.Fatalf("recorder still fed after detach")
	}
	if got := e.DirtyLines(); len(got) != 0 {
		t.Fatalf("dirty tracking still on after detach: %v", got)
	}
}

// TestAttachIncrementalOptions verifies the harness cadence options: with
// Sample=4 a violation introduced on transaction 1 is invisible to the
// skipped transactions 1–3 and caught by the sampled check on transaction 4
// (the state persists; the dirty sets of skipped transactions are discarded,
// not accumulated — the same line must be touched again); with Epoch=NoEpoch
// no full Check ever fires, so corruption on an untouched line goes
// unreported for the whole run; and Fast fidelity still catches the
// corruption (it is within triage's blind-spot-free core).
func TestAttachIncrementalOptions(t *testing.T) {
	m, e := build(t, machine.SourceSnoop)
	l0 := m.MustAlloc(0, 64).Lines()[0]
	l1 := m.MustAlloc(0, 64).Lines()[0]

	rec := &Recorder{}
	detach := AttachIncremental(e, IncrementalOptions{
		Epoch:  NoEpoch,
		Sample: 4,
		Fast:   true,
	}, rec.Record)
	defer detach()

	// Cache the line (transaction 1, sampled out), then corrupt it at L3
	// level: a second, Modified copy in another node's responsible slice —
	// an SWMR violation triage fidelity sees, and one the remaining reads
	// cannot repair because they hit in core 0's L1 without snooping.
	// Transactions 2–3 are skipped by sampling; transaction 4 must report.
	e.Read(0, l0)
	sl := m.CAForNode(1, l0)
	m.Slice(sl).Insert(cache.Line{Addr: l0, State: cache.Modified})
	for i := 2; i <= 3; i++ {
		e.Read(0, l0)
		if rec.HardCount != 0 {
			t.Fatalf("sampled-out transaction %d reported: %v", i, rec.Violations)
		}
	}
	e.Read(0, l0)
	if rec.HardCount == 0 {
		t.Fatalf("sampled check (every 4th transaction) missed persistent corruption")
	}

	// NoEpoch: corruption on a line no transaction touches must never be
	// reported — run well past any DefaultEpoch-divisor boundary worth of
	// transactions relative to the small sample period.
	m.Slice(sl).Invalidate(l0)
	rec.Reset()
	m.Core(1).L1D.Insert(cache.Line{Addr: l1, State: cache.Modified})
	for i := 0; i < 64; i++ {
		e.Read(0, l0)
	}
	if rec.HardCount != 0 {
		t.Fatalf("Epoch=NoEpoch still ran a full Check: %v", rec.Violations)
	}
	// An explicit end-of-run Check — the harness's responsibility under
	// NoEpoch — does see it.
	if hard := Hard(Check(m)); len(hard) == 0 {
		t.Fatalf("end-of-run Check missed the off-dirty corruption")
	}
}

// TestRecorderCapAndReset unit-tests the Recorder: hard findings beyond the
// storage cap still count, stale findings only count, and Reset clears all.
func TestRecorderCapAndReset(t *testing.T) {
	rec := &Recorder{}
	hard := Violation{Kind: KindSWMR, Class: ClassViolation}
	stale := Violation{Kind: KindCoreValid, Class: ClassStale}
	for i := 0; i < maxRecorded+10; i++ {
		rec.Record(mesif.OpRead, 0, 0, []Violation{hard, stale})
	}
	if rec.HardCount != maxRecorded+10 {
		t.Fatalf("HardCount = %d, want %d", rec.HardCount, maxRecorded+10)
	}
	if len(rec.Violations) != maxRecorded {
		t.Fatalf("stored %d violations, want cap %d", len(rec.Violations), maxRecorded)
	}
	if rec.StaleCount != maxRecorded+10 {
		t.Fatalf("StaleCount = %d, want %d", rec.StaleCount, maxRecorded+10)
	}
	if rec.Err() == nil {
		t.Fatalf("Err nil with hard violations recorded")
	}
	rec.Reset()
	if rec.HardCount != 0 || rec.StaleCount != 0 || len(rec.Violations) != 0 {
		t.Fatalf("Reset left state behind: %+v", rec)
	}
	if rec.Err() != nil {
		t.Fatalf("Err non-nil after Reset: %v", rec.Err())
	}
}
