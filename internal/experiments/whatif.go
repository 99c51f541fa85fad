package experiments

import (
	"fmt"
	"strconv"

	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/coherence"
	"haswellep/internal/farm"
	"haswellep/internal/machine"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// This file is the query→campaign adapter layer of the serving stack
// (internal/server, cmd/hswd): a WhatIfSpec is one fully canonical what-if
// question — machine config + protocol + snoop mode + workload — and
// RunWhatIf answers it on a freshly built engine, gated by the always-on
// invariant checker. The spec's Key is the memoization identity the
// server's checkpoint journal stores answers under, so everything that can
// change an answer must be part of it, and every answer must
// JSON-round-trip bit-exactly (encoding/json emits shortest-form float64,
// which decodes back to identical bits — the same contract chaosPointRec
// relies on).

// WhatIfKind names the question a what-if query asks.
type WhatIfKind string

// The supported what-if kinds.
const (
	// WhatIfLatency measures the unloaded load-to-use latency from a core
	// of node From to a buffer homed on node To (previously modified and
	// flushed by To's first core — the node-matrix methodology).
	WhatIfLatency WhatIfKind = "latency"
	// WhatIfBandwidth models the streaming read bandwidth from node From
	// to memory homed on node To: the single-core demand plus the
	// aggregate over Cores concurrently reading cores.
	WhatIfBandwidth WhatIfKind = "bandwidth"
	// WhatIfPlacement answers the placement question: from node From,
	// measure the latency to every node's memory and name the best home.
	WhatIfPlacement WhatIfKind = "placement"
	// WhatIfChaos runs one fault-rate point of the chaos sweep (the
	// Table IV matrix under a seeded fault plan, invariant-gated) on the
	// paper's test system.
	WhatIfChaos WhatIfKind = "chaos"
)

// WhatIfSpec is one canonical what-if query. The zero value is not valid;
// build specs through Canonical, which applies per-kind defaults and zeroes
// the fields the kind does not consume so that equivalent questions share
// one Key.
type WhatIfSpec struct {
	Kind     WhatIfKind
	Mode     machine.SnoopMode
	Protocol coherence.ID
	Sockets  int
	Die      topology.DieVariant

	// From and To are NUMA node indices (latency, bandwidth, placement).
	From, To int
	// SizeBytes is the working-set size (latency, bandwidth, placement).
	SizeBytes int64
	// Cores is the number of concurrently reading cores (bandwidth).
	Cores int
	// Seed and Rate select the fault plan (chaos).
	Seed int64
	Rate float64
	// Label is an optional client tag that partitions the memo key
	// without changing the measurement ([A-Za-z0-9._-], at most 32 runes).
	Label string
}

// What-if working-set bounds: small enough that one query stays a bounded
// unit of work (the load-shedding budget prices queries, not bytes), large
// enough to cover every cache level the paper measures.
const (
	MinWhatIfBytes = 4 * units.KiB
	MaxWhatIfBytes = 64 * units.MiB
)

// Nodes returns the NUMA node count of the spec's geometry.
func (s WhatIfSpec) Nodes() int {
	per := 1
	if s.Mode == machine.COD {
		per = 2
	}
	return s.Sockets * per
}

// Config assembles the machine configuration the spec describes, on the
// test system's calibrated DRAM/QPI/latency parameters.
func (s WhatIfSpec) Config() machine.Config {
	cfg := machine.TestSystem(s.Mode)
	cfg.Sockets = s.Sockets
	cfg.Die = s.Die
	cfg.Protocol = s.Protocol
	return cfg
}

// Canonical applies per-kind defaults, zeroes every field the kind does not
// consume (so equivalent questions produce one Key), and validates the
// result. It is the only constructor the serving layer uses.
func (s WhatIfSpec) Canonical() (WhatIfSpec, error) {
	c := s
	c.Protocol = coherence.Normalize(c.Protocol)
	if c.Sockets == 0 {
		c.Sockets = 2
	}
	switch c.Kind {
	case WhatIfLatency:
		c.Cores, c.Seed, c.Rate = 0, 0, 0
		if c.SizeBytes == 0 {
			c.SizeBytes = SizeMem
		}
	case WhatIfBandwidth:
		c.Seed, c.Rate = 0, 0
		if c.SizeBytes == 0 {
			c.SizeBytes = SizeMem
		}
		if c.Cores == 0 {
			c.Cores = 1
		}
	case WhatIfPlacement:
		c.To, c.Cores, c.Seed, c.Rate = 0, 0, 0, 0
		if c.SizeBytes == 0 {
			c.SizeBytes = SizeMem
		}
	case WhatIfChaos:
		// Chaos points run the paper's test system; the geometry fields
		// are not free (chaosPointRun is TestSystem-shaped by design).
		c.Mode, c.Sockets, c.Die = machine.COD, 2, topology.Die12
		c.From, c.To, c.SizeBytes, c.Cores = 0, 0, 0, 0
	}
	if err := c.Validate(); err != nil {
		return WhatIfSpec{}, err
	}
	return c, nil
}

// Validate rejects impossible geometries and out-of-range workloads — the
// serving layer turns these into structured 400s, never panics.
func (s WhatIfSpec) Validate() error {
	switch s.Kind {
	case WhatIfLatency, WhatIfBandwidth, WhatIfPlacement, WhatIfChaos:
	default:
		return fmt.Errorf("whatif: unknown kind %q", s.Kind)
	}
	switch s.Mode {
	case machine.SourceSnoop, machine.HomeSnoop, machine.COD:
	default:
		return fmt.Errorf("whatif: unknown snoop mode %d", int(s.Mode))
	}
	if s.Sockets < 1 || s.Sockets > 2 {
		return fmt.Errorf("whatif: sockets must be 1 or 2, got %d", s.Sockets)
	}
	if s.Die != topology.Die8 && s.Die != topology.Die12 {
		return fmt.Errorf("whatif: unknown die variant %d", int(s.Die))
	}
	if err := s.Config().Validate(); err != nil {
		return fmt.Errorf("whatif: %w", err)
	}
	if n := len(s.Label); n > 32 {
		return fmt.Errorf("whatif: label longer than 32 bytes (%d)", n)
	}
	for _, r := range s.Label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return fmt.Errorf("whatif: label may only contain [A-Za-z0-9._-], got %q", s.Label)
		}
	}
	nodes := s.Nodes()
	switch s.Kind {
	case WhatIfChaos:
		if s.Rate < 0 || s.Rate > 1 || s.Rate != s.Rate {
			return fmt.Errorf("whatif: chaos rate %g outside [0,1]", s.Rate)
		}
		if s.Mode != machine.COD || s.Sockets != 2 || s.Die != topology.Die12 {
			return fmt.Errorf("whatif: chaos points run the test system (COD, 2 sockets, 12-core die)")
		}
		return nil
	case WhatIfPlacement:
		if s.From < 0 || s.From >= nodes {
			return fmt.Errorf("whatif: from_node %d outside [0,%d)", s.From, nodes)
		}
	default:
		if s.From < 0 || s.From >= nodes {
			return fmt.Errorf("whatif: from_node %d outside [0,%d)", s.From, nodes)
		}
		if s.To < 0 || s.To >= nodes {
			return fmt.Errorf("whatif: to_node %d outside [0,%d)", s.To, nodes)
		}
	}
	if s.SizeBytes < MinWhatIfBytes || s.SizeBytes > MaxWhatIfBytes {
		return fmt.Errorf("whatif: size_bytes %d outside [%d,%d]", s.SizeBytes, int64(MinWhatIfBytes), int64(MaxWhatIfBytes))
	}
	if s.Kind == WhatIfBandwidth {
		if max := s.Die.Cores(); s.Cores < 1 || s.Cores > max {
			return fmt.Errorf("whatif: cores %d outside [1,%d] for the %v", s.Cores, max, s.Die)
		}
	}
	return nil
}

// Key is the spec's canonical memoization identity: every field that can
// change the answer, in one stable line. It doubles as the checkpoint
// journal's point key, so byte-identical re-serving across restarts follows
// from the journal contract.
func (s WhatIfSpec) Key() string {
	return fmt.Sprintf("whatif/v1 kind=%s mode=%s proto=%s sockets=%d die=%d from=%d to=%d size=%d cores=%d seed=%d rate=%s label=%s",
		s.Kind, s.Mode.Token(), coherence.Normalize(s.Protocol), s.Sockets, s.Die.Cores(),
		s.From, s.To, s.SizeBytes, s.Cores, s.Seed,
		strconv.FormatFloat(s.Rate, 'g', -1, 64), s.Label)
}

// WhatIfAnswer is the measured answer to one what-if query; exactly one of
// the per-kind payloads is set. Answers are JSON-round-trippable: a value
// restored from the checkpoint journal re-marshals byte-identically.
type WhatIfAnswer struct {
	Kind      WhatIfKind       `json:"kind"`
	Latency   *LatencyAnswer   `json:"latency,omitempty"`
	Bandwidth *BandwidthAnswer `json:"bandwidth,omitempty"`
	Placement *PlacementAnswer `json:"placement,omitempty"`
	Chaos     *ChaosAnswer     `json:"chaos,omitempty"`
}

// LatencyAnswer is the latency-kind payload.
type LatencyAnswer struct {
	// Ns is the mean load-to-use latency.
	Ns float64 `json:"ns"`
	// Lines is the number of cache lines accessed.
	Lines int `json:"lines"`
	// RemoteDRAM and RemoteFwd mirror the paper's performance-counter
	// readings: loads serviced by remote DRAM / a remote cache forward.
	RemoteDRAM int `json:"remote_dram"`
	RemoteFwd  int `json:"remote_fwd"`
}

// BandwidthAnswer is the bandwidth-kind payload.
type BandwidthAnswer struct {
	// SingleGBps is the modeled single-core streaming-read bandwidth.
	SingleGBps float64 `json:"single_gbps"`
	// AggregateGBps is the modeled bandwidth of Cores concurrent readers
	// against the path's capacity.
	AggregateGBps float64 `json:"aggregate_gbps"`
	Cores         int     `json:"cores"`
	// CapGBps is the limiting path capacity the aggregation saturates.
	CapGBps float64 `json:"cap_gbps"`
}

// PlacementAnswer is the placement-kind payload.
type PlacementAnswer struct {
	// LatencyNs is the unloaded memory latency from the requesting node
	// to each node's memory, indexed by home node.
	LatencyNs []float64 `json:"latency_ns"`
	// BestNode is the lowest-latency home node (lowest index on ties).
	BestNode int `json:"best_node"`
}

// ChaosAnswer is the chaos-kind payload: one invariant-gated fault-rate
// point (the quick form — Table IV only — of the chaos sweep's points).
type ChaosAnswer struct {
	Table4Ns         [4][4]float64 `json:"table4_ns"`
	Mean4Ns          float64       `json:"mean4_ns"`
	InjectedFaults   uint64        `json:"injected_faults"`
	FaultRetries     uint64        `json:"fault_retries"`
	DirectoryRepairs uint64        `json:"directory_repairs"`
	WastedSnoops     uint64        `json:"wasted_snoops"`
	PenaltyNs        float64       `json:"penalty_ns"`
	StaleFindings    int           `json:"stale_findings"`
	FaultEvents      int           `json:"fault_events"`
	RemoteReadGBps   float64       `json:"remote_read_gbps"`
}

// WhatIfOptions tunes RunWhatIf's harness wiring; nothing here may change
// the measured answer (the memo key does not include it).
type WhatIfOptions struct {
	// BundleDir, when non-empty, attaches a flight recorder and writes a
	// repro bundle there on a hard invariant violation or a panic (the
	// farm's capture hook fires while the panic unwinds).
	BundleDir string
	// InjectPanic makes the point panic after touching a few lines — the
	// serving layer's failure-path test hook (hswd -inject-panic).
	InjectPanic bool
}

// RunWhatIf answers one canonical what-if spec. fc may be nil when no farm
// drives the point (direct calls, tests); with a farm context, panics are
// captured into repro bundles exactly as chaos-sweep points are.
func RunWhatIf(fc *farm.Ctx, s WhatIfSpec, o WhatIfOptions) (WhatIfAnswer, error) {
	if err := s.Validate(); err != nil {
		return WhatIfAnswer{}, err
	}
	if s.Kind == WhatIfChaos {
		rec, err := chaosPointRun(s.Seed, s.Rate, ChaosOptions{
			BundleDir: o.BundleDir,
			Protocol:  s.Protocol,
		}, fc, o.InjectPanic)
		if err != nil {
			return WhatIfAnswer{}, err
		}
		var injected uint64
		for _, n := range rec.Counters.Injected {
			injected += n
		}
		return WhatIfAnswer{Kind: WhatIfChaos, Chaos: &ChaosAnswer{
			Table4Ns:         rec.Table4,
			Mean4Ns:          matrixMean(rec.Table4),
			InjectedFaults:   injected,
			FaultRetries:     rec.Counters.Retries,
			DirectoryRepairs: rec.Counters.DirectoryRepairs,
			WastedSnoops:     rec.Counters.WastedSnoops,
			PenaltyNs:        rec.Counters.PenaltyNs,
			StaleFindings:    rec.StaleFindings,
			FaultEvents:      rec.FaultEvents,
			RemoteReadGBps:   rec.RemoteReadGBps,
		}}, nil
	}

	env, err := NewEnvCfg(s.Config())
	if err != nil {
		return WhatIfAnswer{}, err
	}
	armPoint(env, fc, o.BundleDir, o.InjectPanic, fmt.Sprintf("injected what-if panic (%s)", s.Kind))

	ans := WhatIfAnswer{Kind: s.Kind}
	switch s.Kind {
	case WhatIfLatency:
		ans.Latency = whatIfLatency(env, s.From, s.To, s.SizeBytes)
	case WhatIfBandwidth:
		ans.Bandwidth = whatIfBandwidth(env, s)
	case WhatIfPlacement:
		ans.Placement = whatIfPlacement(env, s)
	}
	// The acceptance gate: the always-on incremental checker validated the
	// transactions behind the measurement; a hard violation degrades the
	// point instead of serving a wrong number.
	if err := env.Check.Err(); err != nil {
		return WhatIfAnswer{}, fmt.Errorf("whatif %s: invariant gate: %w", s.Kind, err)
	}
	return ans, nil
}

// whatIfLatency measures the unloaded latency from node from to a buffer
// homed on node to, previously modified and flushed by to's first core —
// the node-matrix methodology (NodeMatrix) as a single cell.
func whatIfLatency(env *Env, from, to int, size int64) *LatencyAnswer {
	core := env.FirstCore(from)
	owner := env.FirstCore(to)
	r := env.Alloc(to, size)
	env.Fresh()
	env.P.Modified(owner, r)
	env.P.FlushAll(owner, r)
	st := bench.Latency(env.E, core, r)
	return &LatencyAnswer{Ns: st.MeanNs, Lines: st.N, RemoteDRAM: st.RemoteDRAM, RemoteFwd: st.RemoteFwd}
}

// whatIfBandwidth models the streaming-read bandwidth from node From to
// memory on node To: measured single-core demand, aggregated over Cores
// readers against the limiting path capacity.
func whatIfBandwidth(env *Env, s WhatIfSpec) *BandwidthAnswer {
	core := env.FirstCore(s.From)
	owner := env.FirstCore(s.To)
	r := env.Alloc(s.To, s.SizeBytes)
	env.Fresh()
	env.P.Modified(owner, r)
	env.P.FlushAll(owner, r)
	st := bwmodel.ReadStream(env.E, core, r, bwmodel.AVX256, bwmodel.ConcurrencyFor(env.Mode))
	cap := whatIfReadCap(env.M.Cfg, s.From, s.To)
	return &BandwidthAnswer{
		SingleGBps:    st.GBps,
		AggregateGBps: bwmodel.Aggregate(s.Cores, st.GBps, cap, 1),
		Cores:         s.Cores,
		CapGBps:       cap,
	}
}

// whatIfReadCap picks the limiting sustained-read capacity for a
// from-node→to-node stream: the node or socket DRAM ceiling locally, the
// COD inter-node capacity within a socket, and the QPI payload capacity
// (bounded by the remote DRAM ceiling) across sockets.
func whatIfReadCap(cfg machine.Config, from, to int) float64 {
	caps := bwmodel.CapsFor(cfg)
	perSocket := 1
	if cfg.Mode == machine.COD {
		perSocket = 2
	}
	if from == to {
		if cfg.Mode == machine.COD {
			return caps.MemReadPerNode
		}
		return caps.MemReadPerSocket
	}
	if from/perSocket == to/perSocket {
		// Same socket, different COD node: one ring-bridge hop.
		return caps.CODInterNodeCap(1)
	}
	// Cross-socket: QPI per direction, never more than the remote memory
	// ceiling; in COD mode the far sub-node costs the extra hop.
	qpi := caps.QPIReadCap(cfg.Mode)
	mem := caps.MemReadPerSocket
	if cfg.Mode == machine.COD {
		mem = caps.MemReadPerNode
		hops := 2
		if from%perSocket != to%perSocket {
			hops = 3
		}
		if c := caps.CODInterNodeCap(hops); c < qpi {
			qpi = c
		}
	}
	if mem < qpi {
		return mem
	}
	return qpi
}

// whatIfPlacement measures the latency from node s.From to every node's
// memory and names the best home node (lowest latency, lowest index wins
// ties) — the NUMA-placement what-if.
func whatIfPlacement(env *Env, s WhatIfSpec) *PlacementAnswer {
	n := env.M.Topo.Nodes()
	ans := &PlacementAnswer{LatencyNs: make([]float64, n)}
	for to := 0; to < n; to++ {
		ans.LatencyNs[to] = whatIfLatency(env, s.From, to, s.SizeBytes).Ns
	}
	for to := 1; to < n; to++ {
		if ans.LatencyNs[to] < ans.LatencyNs[ans.BestNode] {
			ans.BestNode = to
		}
	}
	return ans
}
