package invariant

import (
	"math/rand"
	"testing"

	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// TestCapacityPressure drives a working set well beyond a node's L3 (one
// COD cluster: 6 slices x 2.5 MiB = 15 MiB) so the full eviction machinery
// fires continuously: L3 capacity victims back-invalidate cores, modified
// L2 victims write back into (or past) the L3, and silent clean evictions
// strand core-valid bits and directory state. The checker must report zero
// hard violations throughout — the regime that used to trip the stranded
// private-copy bug in handleL2Victim.
func TestCapacityPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity-pressure stream skipped in -short mode")
	}
	cfg := machine.TestSystem(machine.COD)
	cfg.Sockets = 1 // one 12-core die, two COD clusters of 15 MiB L3 each
	m := machine.MustNew(cfg)
	e := mesif.New(m)

	// Always-on incremental checking: every transaction's dirty lines are
	// validated the moment it completes, with a periodic full Check as the
	// epoch safety net — the same wiring the experiment harness uses.
	rec := &Recorder{}
	AttachIncremental(e, IncrementalOptions{Epoch: 16384}, rec.Record)

	const footprint = 24 * units.MiB // 1.6x the home cluster's L3
	region := m.MustAlloc(0, footprint)
	lines := region.Lines()

	// Three cores — two in the home cluster, one remote — mix streaming
	// writes with re-reads of a trailing window, so lines are evicted in
	// every state: Modified (writebacks), Exclusive, and Shared.
	cores := []topology.CoreID{0, 1, 6}
	rng := rand.New(rand.NewSource(0xCAFE))
	const window = 64
	for i, l := range lines {
		c := cores[i%len(cores)]
		if i%4 == 0 {
			e.Write(c, l)
		} else {
			e.Read(c, l)
		}
		// Revisit a recent line from another core: shared copies under
		// pressure, plus private-cache evictions of still-L3-resident
		// lines.
		if i >= window && i%8 == 0 {
			back := lines[i-1-rng.Intn(window)]
			e.Read(cores[(i+1)%len(cores)], back)
		}
		// The attached checker has already validated every line this
		// transaction touched; fail at the first recorded violation so the
		// report points near the offending stream position.
		if rec.HardCount != 0 {
			t.Fatalf("violation by line %d of the stream:\n  %v", i, rec.Violations[0])
		}
	}
	found := Check(m)
	if hard := Hard(found); len(hard) != 0 {
		t.Fatalf("violations after capacity stream: %d, first: %v", len(hard), hard[0])
	}
	// The regime must actually have produced the documented staleness —
	// otherwise the working set never left the caches and the test proves
	// nothing.
	if len(found) == 0 {
		t.Error("no stale findings: capacity pressure apparently never evicted anything")
	}
}
