package mesif_test

import (
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/coherence"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// The steady-state transaction paths of a healthy engine (no fault
// injector, dirty-set tracking off) are allocation-free: every lookup
// structure on the hot path — the flat directory store, the slice-hash
// memo, the fixed-width stat counters, the presence-vector decode — works
// in place. These guards pin that property so a regression (a map rebuilt
// per transaction, a fmt.Sprintf on a non-error path, an interface boxing)
// fails CI instead of quietly costing 5x again.
//
// Each guard warms the path first: first-touch work (directory growth,
// memo fills, DRAM page-table entries) is allowed to allocate, the steady
// state is not. Every guard runs on all nine systems (3 snoop modes × 3
// protocols), so the source-snoop, home-snoop and directory miss paths
// are all held to the contract.

// forEachSystem runs fn as a subtest on a fresh engine of every snoop mode
// × protocol system.
func forEachSystem(t *testing.T, fn func(t *testing.T, e *mesif.Engine)) {
	for _, mode := range []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop, machine.COD} {
		for _, id := range coherence.IDs() {
			cfg := machine.TestSystem(mode)
			cfg.Protocol = id
			t.Run(mode.Token()+"/"+string(id), func(t *testing.T) {
				fn(t, mesif.New(machine.MustNew(cfg)))
			})
		}
	}
}

// TestReadHitAllocationFree: an L1 read hit allocates nothing.
func TestReadHitAllocationFree(t *testing.T) {
	forEachSystem(t, func(t *testing.T, e *mesif.Engine) {
		l := lineOn(t, e, 0)
		e.Read(0, l) // warm: fill the line into the core's L1

		if avg := testing.AllocsPerRun(100, func() {
			e.Read(0, l)
		}); avg != 0 {
			t.Errorf("L1 read hit allocates %.1f times per transaction, want 0", avg)
		}
	})
}

// TestRemoteReadWriteUpgradeAllocationFree: the cross-node steady cycle —
// core 0 writes (invalidating the remote copy: a write-upgrade with a
// directory update where there is a directory), the first core of node 1
// reads (a remote read served by a forward) — allocates nothing once warm.
// This cycle walks the snoop fan-out, the directory store, the HitME
// cache, and the victim paths every iteration.
func TestRemoteReadWriteUpgradeAllocationFree(t *testing.T) {
	forEachSystem(t, func(t *testing.T, e *mesif.Engine) {
		l := lineOn(t, e, 0)
		remote := e.M.Topo.CoresOfNode(1)[0]

		// Warm: two full cycles populate caches, directory, HitME, and
		// the DRAM controllers' page state for every line the cycle
		// touches.
		for i := 0; i < 2; i++ {
			e.Write(0, l)
			e.Read(remote, l)
		}

		if avg := testing.AllocsPerRun(100, func() {
			e.Write(0, l)
			e.Read(remote, l)
		}); avg != 0 {
			t.Errorf("write-upgrade + remote-read cycle allocates %.1f times per cycle, want 0", avg)
		}
	})
}

// TestCapacityStreamAllocationFree: streaming reads over a working set
// larger than every cache level keep evicting and refilling — the victim
// cascade, L3 insertion, and directory delete/insert churn — without
// allocating once the directory table has grown to its steady size.
func TestCapacityStreamAllocationFree(t *testing.T) {
	forEachSystem(t, func(t *testing.T, e *mesif.Engine) {
		const lines = 4096
		r, err := e.M.AllocOnNode(0, lines*64)
		if err != nil {
			t.Fatal(err)
		}
		base := r.Base.Line()
		stream := func() {
			for i := 0; i < lines; i++ {
				e.Read(0, base+addr.LineAddr(i))
			}
		}
		stream() // warm: grow the directory and touch every DRAM page

		if avg := testing.AllocsPerRun(3, stream); avg != 0 {
			t.Errorf("capacity stream allocates %.1f times per pass, want 0", avg)
		}
	})
}

// TestResetCycleAllocationFree: a machine reset keeps every lookup
// structure's storage, so the traffic after it allocates nothing. Each
// cycle resets the machine, then runs a cross-node exchange that enters
// the HitME cache where there is one: a line homed on node 1 is written by
// node 0's first core and read by the last node's first core (a forward to
// a requester outside the home node), then the two swap roles.
func TestResetCycleAllocationFree(t *testing.T) {
	forEachSystem(t, func(t *testing.T, e *mesif.Engine) {
		l := lineOn(t, e, 1)
		a := e.M.Topo.CoresOfNode(0)[0]
		b := e.M.Topo.CoresOfNode(topology.NodeID(e.M.Topo.Nodes() - 1))[0]
		cycle := func() {
			e.M.Reset()
			e.Write(a, l)
			e.Read(b, l)
			e.Write(b, l)
			e.Read(a, l)
		}
		cycle() // warm: first-touch DRAM page state and directory growth

		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("reset + cross-node cycle allocates %.1f times per cycle, want 0", avg)
		}
	})
}
