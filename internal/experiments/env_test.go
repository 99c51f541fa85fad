package experiments

import (
	"testing"

	"haswellep/internal/cache"
	"haswellep/internal/coherence"
	"haswellep/internal/farm"
	"haswellep/internal/machine"
	"haswellep/internal/replay"
	"haswellep/internal/trace"
)

// firstReport counts the env's transactions up to the first one after which
// env.Check holds a hard violation (0 if none within 32). Transaction 1
// caches a line in core 0's L1; the test then plants a second, Modified
// copy in node 1's responsible L3 slice — an SWMR violation the triage
// checker sees, and one the remaining reads cannot repair because they hit
// in core 0's L1 without snooping.
func firstReport(env *Env) int {
	l := env.Alloc(0, 64).Base.Line()
	c0 := env.FirstCore(0)
	for tx := 1; tx <= 32; tx++ {
		env.E.Read(c0, l)
		if tx == 1 {
			env.M.Slice(env.M.CAForNode(1, l)).Insert(cache.Line{Addr: l, State: cache.Modified})
		}
		if env.Check.HardCount > 0 {
			return tx
		}
	}
	return 0
}

// TestEnvCheckerCadence pins the checker cadence the construction path
// picks: every healthy env — NewEnv, NewEnvCfg, and NewEnvWithFaults under
// an inert plan — checks every 16th transaction, so the persistent
// corruption first surfaces on transaction 16; an actively injecting plan
// checks every transaction, so it surfaces on the first transaction after
// the corruption.
func TestEnvCheckerCadence(t *testing.T) {
	mustEnv := func(env *Env, err error) *Env {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	cases := []struct {
		name string
		env  *Env
		want int
	}{
		{"NewEnv", NewEnv(machine.SourceSnoop), 16},
		{"NewEnvCfg", mustEnv(NewEnvCfg(machine.TestSystem(machine.HomeSnoop))), 16},
		{"NewEnvWithFaults/inert", mustEnv(NewEnvWithFaults(machine.COD, ChaosPlanAt(7, 0))), 16},
		{"NewEnvWithFaults/active", mustEnv(NewEnvWithFaults(machine.COD, ChaosPlanAt(7, 0.05))), 2},
	}
	for _, c := range cases {
		if got := firstReport(c.env); got != c.want {
			t.Errorf("%s: corruption first reported after transaction %d, want %d", c.name, got, c.want)
		}
	}
}

// TestChaosPointRunsProtocol: a chaos point under ChaosOptions.Protocol runs
// its engine on a machine of that protocol. The point's injected panic
// leaves a bundle recorded from that machine; the machine replay rebuilds
// from it must resolve to MOESI.
func TestChaosPointRunsProtocol(t *testing.T) {
	res, err := ChaosSweepOpts(11, []float64{0.02}, ChaosOptions{
		Protocol:    coherence.MOESI,
		BundleDir:   t.TempDir(),
		Tolerate:    true,
		InjectPanic: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Kind != farm.KindPanic || res.Degraded[0].BundlePath == "" {
		t.Fatalf("want one panicked point with a bundle, got %+v", res.Degraded)
	}
	b, err := trace.ReadFile(res.Degraded[0].BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	e, err := replay.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if id := e.M.Proto.ID(); id != coherence.MOESI {
		t.Errorf("moesi chaos point ran a %s machine", id)
	}
}
