// Command hswctr runs a placement/measurement scenario and prints the
// emulated performance-counter readings — the simulator's perf-stat, built
// on the event set the paper uses to reverse-engineer the machine
// (footnotes 6 and 8).
//
// Usage:
//
//	hswctr -mode cod -state shared -placer 6 -sharer 12 -node 1 -core 0
//	hswctr -state modified -placer 12 -node 1       # remote HITM forwards
//
//hsw:tier tool
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"haswellep/internal/bench"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/perfctr"
	"haswellep/internal/placement"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hswctr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeFlag := fs.String("mode", "source", "coherence mode: source, home, cod")
	state := fs.String("state", "exclusive", "placed state: modified, exclusive, shared, memory")
	placer := fs.Int("placer", 1, "core that places the data")
	sharer := fs.Int("sharer", -1, "second core for shared placement")
	core := fs.Int("core", 0, "core that measures")
	node := fs.Int("node", 0, "home node of the buffer")
	size := fs.Int64("size", 1, "buffer size in MiB")
	explain := fs.Bool("explain", false, "narrate the protocol path of the first access")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mode, err := machine.ParseSnoopMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "hswctr: unknown mode %q\n", *modeFlag)
		return 2
	}

	m := machine.MustNew(machine.TestSystem(mode))
	e := mesif.New(m)
	p := placement.New(e)
	mon := perfctr.New(e)

	if *node >= m.Topo.Nodes() || *placer >= m.Topo.Cores() || *core >= m.Topo.Cores() {
		fmt.Fprintln(stderr, "hswctr: node or core out of range")
		return 2
	}
	r := m.MustAlloc(topology.NodeID(*node), *size*units.MiB)
	pc := topology.CoreID(*placer)
	second := topology.CoreID(*placer + 1)
	if *sharer >= 0 {
		second = topology.CoreID(*sharer)
	}
	place, err := placement.Named(*state)
	if err != nil {
		fmt.Fprintf(stderr, "hswctr: %v\n", err)
		return 2
	}
	place(p, pc, second, r)

	if *explain {
		fmt.Fprintln(stdout, e.Explain(topology.CoreID(*core), r.Base.Line()))
		fmt.Fprintln(stdout)
	}

	mon.Reset()
	e.WorkingSet = r.Size
	var meanNs float64
	n := 0
	for _, l := range bench.ChaseOrder(r) {
		meanNs += e.Read(topology.CoreID(*core), l).Latency.Nanoseconds()
		n++
	}
	meanNs /= float64(n)

	fmt.Fprintf(stdout, "%v\n", m)
	fmt.Fprintf(stdout, "scenario: core %d reads %s of %s data homed on node%d (placed by core %d)\n\n",
		*core, units.HumanBytes(r.Size), *state, *node, *placer)
	fmt.Fprintf(stdout, "mean latency: %.1f ns over %d loads\n\n", meanNs, n)
	fmt.Fprintln(stdout, "counter readings:")
	fmt.Fprint(stdout, mon.ReadCounters().String())
	return 0
}
