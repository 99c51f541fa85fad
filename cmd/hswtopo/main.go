// Command hswtopo prints the simulated machine's topology: ring layouts,
// NUMA node membership, node-hop distances, and the memory map — the
// simulator's equivalent of lstopo/numactl --hardware.
//
// Usage:
//
//	hswtopo              # default configuration (source snoop)
//	hswtopo -mode cod    # Cluster-on-Die
//	hswtopo -mode home   # home snoop
//
//hsw:tier tool
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"haswellep/internal/machine"
	"haswellep/internal/report"
	"haswellep/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hswtopo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeFlag := fs.String("mode", "source", "coherence mode: source, home, cod")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mode, err := machine.ParseSnoopMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "hswtopo: unknown mode %q\n", *modeFlag)
		return 2
	}

	m := machine.MustNew(machine.TestSystem(mode))
	fmt.Fprintln(stdout, m.String())
	fmt.Fprintln(stdout)

	// Ring layout of one die.
	fmt.Fprintln(stdout, "Die layout (identical per socket):")
	die := m.Topo.Die
	for r := 0; r < die.Rings(); r++ {
		fmt.Fprintf(stdout, "  ring %d:", r)
		for _, s := range die.RingStops(r) {
			switch s.Kind {
			case topology.KindCBo:
				fmt.Fprintf(stdout, " CBo%d", s.Index)
			case topology.KindIMC:
				fmt.Fprintf(stdout, " IMC%d", s.Index)
			case topology.KindBridge:
				fmt.Fprintf(stdout, " Q%d", s.Index)
			default:
				fmt.Fprintf(stdout, " %v", s.Kind)
			}
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout)

	// NUMA nodes.
	fmt.Fprintln(stdout, "NUMA nodes:")
	for n := 0; n < m.Topo.Nodes(); n++ {
		node := topology.NodeID(n)
		cores := m.Topo.CoresOfNode(node)
		fmt.Fprintf(stdout, "  node%d: socket %d, cores %d-%d, home agent IMC%d\n",
			n, m.Topo.SocketOfNode(node), cores[0], cores[len(cores)-1],
			m.Topo.LocalAgent(m.Topo.AgentOfNode(node)))
	}
	fmt.Fprintln(stdout)

	// Node distance matrix (the paper's hop metric).
	tbl := report.NewTable("Node hop distances:", header(m.Topo.Nodes())...)
	for a := 0; a < m.Topo.Nodes(); a++ {
		row := []string{fmt.Sprintf("node%d", a)}
		for b := 0; b < m.Topo.Nodes(); b++ {
			row = append(row, fmt.Sprintf("%d", m.Topo.NodeHops(topology.NodeID(a), topology.NodeID(b))))
		}
		tbl.AddRow(row...)
	}
	fmt.Fprintln(stdout, tbl.String())

	// Latency model summary.
	lat := m.Cfg.Lat
	fmt.Fprintln(stdout, "Calibrated primitive-step latencies (ns):")
	fmt.Fprintf(stdout, "  L1 hit %.1f, L2 hit %.1f, L3 pipe %.1f, ring hop %.2f, bridge %.2f\n",
		lat.L1Hit, lat.L2Hit, lat.L3Pipe, lat.RingHop, lat.BridgeCross)
	fmt.Fprintf(stdout, "  QPI transit %.1f, node transfer %.1f, HA resolve %.1f\n",
		lat.QPITransit, lat.NodeTransferPipe, lat.HAResolve)
	return 0
}

func header(nodes int) []string {
	h := []string{""}
	for b := 0; b < nodes; b++ {
		h = append(h, fmt.Sprintf("node%d", b))
	}
	return h
}
