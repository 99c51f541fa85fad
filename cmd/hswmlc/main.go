// Command hswmlc prints node-to-node memory latency and bandwidth matrices
// for the simulated machine — the simulator's rendition of Intel Memory
// Latency Checker's headline output, derived from the protocol engine.
//
// Usage:
//
//	hswmlc              # default configuration (2 nodes)
//	hswmlc -mode cod    # Cluster-on-Die (4x4 matrices)
//
//hsw:tier tool
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"haswellep/internal/experiments"
	"haswellep/internal/machine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hswmlc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeFlag := fs.String("mode", "source", "coherence mode: source, home, cod")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mode, err := machine.ParseSnoopMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "hswmlc: unknown mode %q\n", *modeFlag)
		return 2
	}

	res := experiments.NodeMatrix(mode)
	fmt.Fprintln(stdout, res.Latency.String())
	fmt.Fprintln(stdout, res.Bandwidth.String())
	if !res.DiagonalDominant(5) {
		fmt.Fprintln(stdout, "note: some node's local memory is not its fastest — the")
		fmt.Fprintln(stdout, "asymmetric-die effect of the paper's Section VI-C")
	}
	return 0
}
