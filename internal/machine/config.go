// Package machine assembles the simulated dual-socket Haswell-EP system:
// topology, private caches, L3 slices, home agents (DRAM + directory), the
// NUMA memory map, and the calibrated latency model the MESIF engine uses
// to cost protocol transactions.
//
// A Machine is one shared simulated state with single-threaded mutation and
// is NOT safe for concurrent use; multi-core workloads are interleaved
// access sequences, never goroutines (the nogoroutine analyzer in
// tools/analyzers enforces this contract).
//
//hsw:tier engine
package machine

import (
	"fmt"

	"haswellep/internal/coherence"
	"haswellep/internal/dram"
	"haswellep/internal/interconnect"
	"haswellep/internal/topology"
)

// SnoopMode selects the coherence protocol configuration (Section IV).
type SnoopMode int

// The three configurations compared throughout the paper.
const (
	// SourceSnoop is the default configuration (BIOS "Early Snoop"
	// enabled): on an L3 miss the caching agent broadcasts snoops to the
	// peer caching agents and the home agent in parallel. Lowest latency,
	// highest interconnect traffic.
	SourceSnoop SnoopMode = iota
	// HomeSnoop (Early Snoop disabled): the caching agent forwards misses
	// to the home agent, which sends the snoops. Adds latency, saves
	// requester-side broadcast traffic.
	HomeSnoop
	// COD is Cluster-on-Die mode: each socket is split into two NUMA
	// nodes and the protocol runs home snooping with the in-memory
	// directory and the HitME directory cache enabled.
	COD
)

// String names the snoop mode as the paper does.
func (m SnoopMode) String() string {
	switch m {
	case SourceSnoop:
		return "source snoop (default)"
	case HomeSnoop:
		return "home snoop (Early Snoop disabled)"
	case COD:
		return "Cluster-on-Die"
	default:
		return fmt.Sprintf("SnoopMode(%d)", int(m))
	}
}

// Token is the mode's short name as flags, wire queries and memo keys
// spell it: "source", "home" or "cod". ParseSnoopMode is its inverse.
func (m SnoopMode) Token() string {
	switch m {
	case SourceSnoop:
		return "source"
	case HomeSnoop:
		return "home"
	case COD:
		return "cod"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// ParseSnoopMode maps a mode's short name (see Token) to the mode.
func ParseSnoopMode(s string) (SnoopMode, error) {
	for m := SourceSnoop; m <= COD; m++ {
		if m.Token() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown snoop mode %q (choose source, home, or cod)", s)
}

// UsesDirectory reports whether the home agents consult the in-memory
// directory and HitME cache. On the modeled two-socket system the directory
// is only active in COD mode (Section IV-A: "Our test system does not
// expose a BIOS option to manually enable directory support, but it is
// automatically enabled in COD mode").
func (m SnoopMode) UsesDirectory() bool { return m == COD }

// HomeSnooped reports whether snoops originate at the home agent.
func (m SnoopMode) HomeSnooped() bool { return m != SourceSnoop }

// Config describes the machine to simulate.
type Config struct {
	// Sockets is the number of processor packages (the paper's test
	// system has two).
	Sockets int
	// Die selects the die variant (the test system uses the 12-core die).
	Die topology.DieVariant
	// Mode is the snoop configuration.
	Mode SnoopMode
	// Protocol selects the coherence protocol (internal/coherence). The
	// zero value means MESIF — the Haswell-EP protocol — so existing
	// configurations and serialized repro bundles are unchanged.
	Protocol coherence.ID
	// DRAM configures each memory controller's DRAM attachment.
	DRAM dram.Config
	// QPI configures the inter-socket links.
	QPI interconnect.QPIConfig
	// Lat is the primitive-step latency model.
	Lat LatencyModel

	// Ablation knobs (defaults model the real machine; see the ablation
	// experiments in internal/experiments/ablation.go).

	// ForceDirectory enables the in-memory directory and the HitME cache
	// even outside COD mode (the paper's test system has no BIOS switch
	// for this, but the DAS protocol [4] supports it; [16, Section 2.5]
	// advises against it for two-socket systems — the ablation shows
	// what it would do).
	ForceDirectory bool
	// DisableDirectory turns the directory structures off in COD mode
	// (pure home snooping over four NUMA nodes).
	DisableDirectory bool
	// DisableHitME keeps the in-memory directory but removes the
	// directory cache (every snoop-all line pays the DRAM directory
	// read before any broadcast; shared lines lose the memory-forward).
	DisableHitME bool
	// HitMEBytes overrides the directory cache capacity per home agent
	// (0 = the real 14 KiB).
	HitMEBytes int64

	// QPILatencyFactor scales the QPI transit latency of every
	// socket-crossing message; 0 and 1 both mean healthy links. Fault
	// plans set it above 1 to model a degraded inter-socket link
	// (internal/fault); DRAM.LatencyFactor is the analogous knob for a
	// degraded memory channel.
	QPILatencyFactor float64
}

// qpiLatencyFactor returns the effective QPI multiplier (0 means healthy).
func (c Config) qpiLatencyFactor() float64 {
	if c.QPILatencyFactor <= 0 {
		return 1
	}
	return c.QPILatencyFactor
}

// DirectoryEnabled reports whether the home agents run the DAS directory
// under this configuration.
func (c Config) DirectoryEnabled() bool {
	if c.DisableDirectory {
		return false
	}
	return c.Mode.UsesDirectory() || c.ForceDirectory
}

// TestSystem returns the configuration of the paper's test system
// (Table II): two 12-core Haswell-EP processors at 2.5 GHz, four DDR4-2133
// channels per socket, two 9.6 GT/s QPI links, in the given snoop mode.
func TestSystem(mode SnoopMode) Config {
	return Config{
		Sockets: 2,
		Die:     topology.Die12,
		Mode:    mode,
		DRAM:    dram.DDR4_2133,
		QPI:     interconnect.QPI96,
		Lat:     DefaultLatencyModel(),
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Sockets < 1 {
		return fmt.Errorf("machine: at least one socket required")
	}
	if c.Mode == COD && c.Die == topology.Die8 {
		return fmt.Errorf("machine: COD mode is unavailable on the single-ring 8-core die")
	}
	if _, err := coherence.Get(c.Protocol); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.QPILatencyFactor < 0 {
		return fmt.Errorf("machine: QPI latency factor must be non-negative, got %g", c.QPILatencyFactor)
	}
	return nil
}

// ArchParam is one row of the paper's Table I (Sandy Bridge vs Haswell
// micro-architecture comparison).
type ArchParam struct {
	Parameter   string
	SandyBridge string
	Haswell     string
}

// ArchComparison returns the paper's Table I verbatim; the simulator's core
// and uncore parameters are derived from the Haswell column.
func ArchComparison() []ArchParam {
	return []ArchParam{
		{"Decode", "4(+1) x86/cycle", "4(+1) x86/cycle"},
		{"Allocation queue", "28/thread", "56"},
		{"Execute", "6 micro-ops/cycle", "8 micro-ops/cycle"},
		{"Retire", "4 micro-ops/cycle", "4 micro-ops/cycle"},
		{"Scheduler entries", "54", "60"},
		{"ROB entries", "168", "192"},
		{"INT/FP registers", "160/144", "168/168"},
		{"SIMD ISA", "AVX", "AVX2"},
		{"FPU width", "2x 256 bit (1x add, 1x mul)", "2x 256 bit FMA"},
		{"FLOPS/cycle", "16 single / 8 double", "32 single / 16 double"},
		{"Load/store buffers", "64/36", "72/42"},
		{"L1D accesses per cycle", "2x 16 B load + 1x 16 B store", "2x 32 B load + 1x 32 B store"},
		{"L2 bytes/cycle", "32", "64"},
		{"Memory channels", "4x DDR3-1600 (51.2 GB/s)", "4x DDR4-2133 (68.2 GB/s)"},
		{"QPI speed", "8 GT/s (32 GB/s)", "9.6 GT/s (38.4 GB/s)"},
	}
}
