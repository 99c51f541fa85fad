package replay

import (
	"fmt"
	"math/rand"

	"haswellep/internal/addr"
	"haswellep/internal/directory"
	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/trace"
)

// RecordSeededViolation exercises the whole capture pipeline end to end
// and returns the path of the repro bundle it produced: it runs nops
// seeded random transactions on a small COD machine under an active
// fault plan (every dynamic fault kind at 2%), then manufactures a hard
// directory violation — a remote copy exists while the home's in-memory
// directory claims RemoteInvalid — via a recorded CorruptDirectory event,
// and lets the always-on incremental checker detect it on the very next
// transaction, which triggers the invariant Recorder's bundle capture
// into dir.
//
// The violating transaction is an L1 hit of the corrupted line, which
// involves no caching or home agent: no fault can strike it and no
// protocol action can repair the poisoned entry first, so detection — and
// therefore the capture — is deterministic for every seed. cmd/hswreplay
// -selftest, the replay tests, and the CI smoke all build their failing
// runs with this.
func RecordSeededViolation(dir string, seed int64, nops int) (string, error) {
	return recordSeededViolation(dir, seed, nops, 1)
}

// recordSeededViolation is RecordSeededViolation with the socket count
// exposed: the ShrinkSpec tests record on an oversized 2-socket machine —
// the workload never leaves socket 0 — and shrink it back down.
func recordSeededViolation(dir string, seed int64, nops int, sockets int) (string, error) {
	cfg := machine.TestSystem(machine.COD)
	cfg.Sockets = sockets // at 1: one 12-core socket = two COD nodes, directory + HitME on
	plan := fault.Uniform(seed, 0.02)
	cfg = plan.Configure(cfg)
	m, err := machine.New(cfg)
	if err != nil {
		return "", err
	}
	e := mesif.New(m)
	inj, err := fault.NewInjector(plan)
	if err != nil {
		return "", err
	}
	e.Faults = inj

	tr := trace.Attach(e, trace.Options{Capacity: 4*nops + 64})
	defer tr.Detach()
	rec := &invariant.Recorder{}
	detach := invariant.AttachIncremental(e,
		invariant.IncrementalOptions{Epoch: invariant.NoEpoch, Sample: 1}, rec.Record)
	defer detach()
	rec.CaptureTo(tr, dir)

	r0, err := m.AllocOnNode(0, 64*addr.LineSize)
	if err != nil {
		return "", err
	}
	r1, err := m.AllocOnNode(1, 64*addr.LineSize)
	if err != nil {
		return "", err
	}
	lines := make([]addr.LineAddr, 0, 16)
	lines = append(lines, r0.Lines()[:8]...)
	lines = append(lines, r1.Lines()[:8]...)
	cores := []topology.CoreID{
		m.Topo.CoresOfNode(0)[0], m.Topo.CoresOfNode(0)[1],
		m.Topo.CoresOfNode(1)[0], m.Topo.CoresOfNode(1)[1],
	}

	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < nops; i++ {
		op := mesif.OpRead
		if rnd.Intn(3) == 0 {
			op = mesif.OpWrite
		}
		if _, err := e.Do(op, cores[rnd.Intn(len(cores))], lines[rnd.Intn(len(lines))]); err != nil {
			return "", err
		}
	}
	if err := rec.Err(); err != nil {
		// The faulted-but-recovering engine must not violate on its own;
		// a finding here is an engine bug, not the manufactured one.
		return "", fmt.Errorf("replay: random phase violated before sabotage: %w", err)
	}

	victim := r1.Lines()[0] // homed on node 1
	if _, err := e.Do(mesif.OpRead, cores[0], victim); err != nil {
		return "", err // node 0 now caches a remote-homed line
	}
	if err := tr.CorruptDirectory(victim, directory.RemoteInvalid); err != nil {
		return "", err
	}
	// L1 hit on the poisoned line: dirty set = {victim}, the checker runs,
	// and the under-approximating directory entry is a hard violation.
	if _, err := e.Do(mesif.OpRead, cores[0], victim); err != nil {
		return "", err
	}

	if rec.HardCount == 0 {
		return "", fmt.Errorf("replay: manufactured directory violation went undetected")
	}
	if rec.BundleErr != nil {
		return "", rec.BundleErr
	}
	if rec.BundlePath == "" {
		return "", fmt.Errorf("replay: violation detected but no bundle was captured")
	}
	return rec.BundlePath, nil
}
