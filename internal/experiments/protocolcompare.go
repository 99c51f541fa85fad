package experiments

import (
	"fmt"

	"haswellep/internal/coherence"
	"haswellep/internal/machine"
	"haswellep/internal/report"
	"haswellep/internal/units"
)

// ProtocolMetrics is one protocol's row of the comparison: the latency of
// the four access patterns the protocols disagree on, and the traffic a
// fixed sharing workload generates under each.
type ProtocolMetrics struct {
	Protocol coherence.ID

	// Latencies (ns) under identical placements.
	LocalMemNs   float64 // local read from home DRAM
	RemoteMemNs  float64 // cross-cluster read from remote DRAM
	SharedReadNs float64 // third node reads a line two other nodes share clean
	DirtyReadNs  float64 // home node reads back a remote-modified line

	// Traffic counters from the fixed sharing workload (identical access
	// stream under every protocol).
	DRAMReads  uint64
	DRAMWrites uint64
	SnoopsSent uint64
	SnoopsQPI  uint64

	// Write-back accounting for a single dirty cross-node forward: the
	// DRAM writes charged by the forward itself and by the final coherent
	// flush. MESIF and MESI pay on the forward; MOESI defers the whole
	// cost to the flush via the Owned state.
	DirtyForwardWrites uint64
	FlushWrites        uint64
}

// ProtocolCompareResult is the full comparison: one metrics row per
// registered protocol, rendered as a latency matrix and a traffic matrix.
type ProtocolCompareResult struct {
	Metrics []ProtocolMetrics // in coherence.IDs() order
	Latency *report.Table     // access pattern × protocol, ns
	Traffic *report.Table     // counter × protocol
}

// ProtocolCompare runs the identical workload suite under every registered
// coherence protocol and reports per-protocol latency and traffic
// matrices: where MESIF's forwarder, MESI's home refetch, and MOESI's
// Owned state actually show up in numbers. Every env runs with the
// invariant checker attached; a violation under any protocol fails the
// comparison.
func ProtocolCompare() (*ProtocolCompareResult, error) {
	res := &ProtocolCompareResult{}
	for _, id := range coherence.IDs() {
		pm, err := protocolMetrics(id)
		if err != nil {
			return nil, fmt.Errorf("protocol %s: %w", id, err)
		}
		res.Metrics = append(res.Metrics, pm)
	}

	protoCols := func(first string) []string {
		headers := []string{first}
		for _, pm := range res.Metrics {
			headers = append(headers, string(pm.Protocol))
		}
		return headers
	}
	res.Latency = report.NewTable("Latency by coherence protocol (ns), COD", protoCols("access pattern")...)
	latRows := []struct {
		name string
		get  func(ProtocolMetrics) float64
	}{
		{"local memory read", func(p ProtocolMetrics) float64 { return p.LocalMemNs }},
		{"remote memory read", func(p ProtocolMetrics) float64 { return p.RemoteMemNs }},
		{"clean-shared read, 3rd node", func(p ProtocolMetrics) float64 { return p.SharedReadNs }},
		{"dirty remote read", func(p ProtocolMetrics) float64 { return p.DirtyReadNs }},
	}
	for _, row := range latRows {
		cells := []string{row.name}
		for _, pm := range res.Metrics {
			cells = append(cells, fmtNs(row.get(pm)))
		}
		res.Latency.AddRow(cells...)
	}

	res.Traffic = report.NewTable("Traffic by coherence protocol (sharing workload), COD", protoCols("counter")...)
	trRows := []struct {
		name string
		get  func(ProtocolMetrics) uint64
	}{
		{"DRAM reads", func(p ProtocolMetrics) uint64 { return p.DRAMReads }},
		{"DRAM writes", func(p ProtocolMetrics) uint64 { return p.DRAMWrites }},
		{"snoops sent", func(p ProtocolMetrics) uint64 { return p.SnoopsSent }},
		{"snoops over QPI", func(p ProtocolMetrics) uint64 { return p.SnoopsQPI }},
		{"dirty-forward write-backs", func(p ProtocolMetrics) uint64 { return p.DirtyForwardWrites }},
		{"flush write-backs", func(p ProtocolMetrics) uint64 { return p.FlushWrites }},
	}
	for _, row := range trRows {
		cells := []string{row.name}
		for _, pm := range res.Metrics {
			cells = append(cells, fmt.Sprintf("%d", row.get(pm)))
		}
		res.Traffic.AddRow(cells...)
	}
	return res, nil
}

// protocolMetrics measures one protocol's full metrics row on a fresh rig:
// a 2-socket COD machine (four NUMA nodes, so a clean-shared line can have
// two sharers plus an uninvolved third reader) with the HitME cache
// disabled — HitME's memory-forward fast path would serve the shared read
// from the home agent under every protocol and mask the forwarding rules
// the comparison exists to measure.
func protocolMetrics(id coherence.ID) (ProtocolMetrics, error) {
	cfg := machine.TestSystem(machine.COD)
	cfg.DisableHitME = true
	cfg.Protocol = id
	env, err := NewEnvCfg(cfg)
	if err != nil {
		return ProtocolMetrics{}, err
	}
	pm := ProtocolMetrics{Protocol: id}
	c0, c1, c2 := env.FirstCore(0), env.FirstCore(1), env.FirstCore(2)
	r := env.Alloc(0, SizeL1) // homed on node 0, small enough to stay placed

	// Latency points. latencyOf resets the machine before each placement,
	// so the four patterns are independent and identical across protocols.
	pm.LocalMemNs = env.latencyOf(c0, r, func() {
		env.P.Modified(c0, r)
		env.P.FlushAll(c0, r)
	}).MeanNs
	pm.RemoteMemNs = env.latencyOf(c2, r, func() {
		env.P.Modified(c0, r)
		env.P.FlushAll(c0, r)
	}).MeanNs
	// Two nodes share every line clean, then an uninvolved third node
	// reads: MESIF answers from the forwarder's L3, MESI and MOESI refetch
	// from home memory.
	pm.SharedReadNs = env.latencyOf(c2, r, func() {
		env.P.Shared(r, c0, c1)
	}).MeanNs
	// A remote core dirties every line, then the home core reads it back:
	// the dirty forward itself is cache-to-cache under all three, but the
	// write-back policy differs (asserted per line below).
	pm.DirtyReadNs = env.latencyOf(c0, r, func() {
		env.P.Modified(c1, r)
	}).MeanNs

	// Write-back accounting on a single line.
	env.Fresh()
	l := r.Lines()[0]
	env.E.Write(c1, l)
	base := env.M.Traffic().DRAMWrites
	env.E.Read(c0, l)
	pm.DirtyForwardWrites = env.M.Traffic().DRAMWrites - base
	mid := env.M.Traffic().DRAMWrites
	env.E.Flush(c0, l)
	pm.FlushWrites = env.M.Traffic().DRAMWrites - mid

	// Traffic under a fixed sharing workload: a producer on node 1 writes
	// each line, the home node and a third node read it, and the producer
	// re-reads its own line — the migratory-sharing pattern the Owned
	// state exists for. The access stream is identical under every
	// protocol; only the traffic it induces differs.
	env.Fresh()
	w := env.Alloc(0, 4*units.KiB)
	baseTr := env.M.Traffic()
	env.E.ResetStats()
	for _, l := range w.Lines() {
		env.E.Write(c1, l)
		env.E.Read(c0, l)
		env.E.Read(c2, l)
		env.E.Read(c1, l)
	}
	tr := env.M.Traffic()
	pm.DRAMReads = tr.DRAMReads - baseTr.DRAMReads
	pm.DRAMWrites = tr.DRAMWrites - baseTr.DRAMWrites
	s := env.E.Stats()
	pm.SnoopsSent = s.SnoopsSent
	pm.SnoopsQPI = s.SnoopsQPI

	if err := env.Check.Err(); err != nil {
		return pm, err
	}
	return pm, nil
}
