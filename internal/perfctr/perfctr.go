// Package perfctr emulates the performance-counter view the paper uses to
// reverse-engineer the machine (footnotes 6 and 8: the
// MEM_LOAD_UOPS_L3_MISS_RETIRED event group, plus uncore counters for
// snoop traffic and directory activity).
//
// A Monitor wraps a protocol engine, samples its statistics, and exposes
// named events with the semantics of the real counters, so experiments can
// be cross-checked the same way the paper cross-checks its latency curves
// against counter readings (Section VI-C / Figure 7).
//
//hsw:tier engine
package perfctr

import (
	"fmt"
	"sort"
	"strings"

	"haswellep/internal/mesif"
)

// Event names one countable hardware event.
type Event string

// The emulated event set. The MEM_LOAD_UOPS names follow the Intel SDM
// spelling the paper cites; the UNC_ events summarize uncore activity.
const (
	// LoadsRetired counts all demand loads.
	LoadsRetired Event = "MEM_LOAD_UOPS_RETIRED.ALL"
	// L1Hit / L2Hit / L3Hit count loads served by each local level.
	L1Hit Event = "MEM_LOAD_UOPS_RETIRED.L1_HIT"
	L2Hit Event = "MEM_LOAD_UOPS_RETIRED.L2_HIT"
	L3Hit Event = "MEM_LOAD_UOPS_RETIRED.L3_HIT"
	// XSNPHitM counts L3 hits that required a cross-core snoop which hit
	// modified data in a sibling core (the 53/49 ns forwards).
	XSNPHitM Event = "MEM_LOAD_UOPS_L3_HIT_RETIRED.XSNP_HITM"
	// XSNPHit counts L3 hits with a clean cross-core snoop (44.4 ns).
	XSNPHit Event = "MEM_LOAD_UOPS_L3_HIT_RETIRED.XSNP_HIT"
	// LocalDRAM counts L3 misses served by the local node's memory.
	LocalDRAM Event = "MEM_LOAD_UOPS_L3_MISS_RETIRED.LOCAL_DRAM"
	// RemoteDRAM counts L3 misses served by another node's memory
	// (footnote 6 of the paper).
	RemoteDRAM Event = "MEM_LOAD_UOPS_L3_MISS_RETIRED.REMOTE_DRAM"
	// RemoteFwd counts L3 misses served by a remote cache forward
	// (footnote 8).
	RemoteFwd Event = "MEM_LOAD_UOPS_L3_MISS_RETIRED.REMOTE_FWD"
	// SnoopsSent counts snoop messages on the fabric.
	SnoopsSent Event = "UNC_SNOOPS_SENT.ALL"
	// SnoopsQPI counts snoops that crossed a QPI link.
	SnoopsQPI Event = "UNC_SNOOPS_SENT.QPI"
	// DirCacheHits counts HitME directory cache hits.
	DirCacheHits Event = "UNC_H_DIR_CACHE.HIT"
	// DirBroadcasts counts snoop-all broadcasts issued by home agents.
	DirBroadcasts Event = "UNC_H_SNP_BROADCAST.ALL"
	// StoresRetired counts stores.
	StoresRetired Event = "MEM_UOPS_RETIRED.ALL_STORES"
)

// AllEvents lists every emulated event in canonical order.
func AllEvents() []Event {
	return []Event{
		LoadsRetired, L1Hit, L2Hit, L3Hit, XSNPHitM, XSNPHit,
		LocalDRAM, RemoteDRAM, RemoteFwd,
		SnoopsSent, SnoopsQPI, DirCacheHits, DirBroadcasts,
		StoresRetired,
	}
}

// Counts is one sample of all events.
type Counts map[Event]uint64

// Monitor samples an engine's statistics into counter readings: every
// event is the delta of the engine's counters since the last Reset.
type Monitor struct {
	e    *mesif.Engine
	base mesif.Stats
}

// New attaches a monitor to an engine and starts counting from zero.
func New(e *mesif.Engine) *Monitor {
	m := &Monitor{e: e}
	m.Reset()
	return m
}

// Engine returns the monitored engine.
func (m *Monitor) Engine() *mesif.Engine { return m.e }

// Reset zeroes the monitor (subsequent readings are deltas from here).
func (m *Monitor) Reset() {
	m.base = m.e.Stats()
}

// ReadCounters computes the counter values accumulated since the last
// Reset.
func (m *Monitor) ReadCounters() Counts {
	cur := m.e.Stats()
	d := func(get func(mesif.Stats) uint64) uint64 {
		return get(cur) - get(m.base)
	}
	src := func(s mesif.Source) uint64 {
		return cur.BySource[s] - m.base.BySource[s]
	}
	remote := d(func(s mesif.Stats) uint64 { return s.RemoteDRAM })
	local := src(mesif.SrcMemory) + src(mesif.SrcMemoryForward)
	if remote < local {
		local -= remote
	} else {
		local = 0
	}
	return Counts{
		LoadsRetired:  d(func(s mesif.Stats) uint64 { return s.Reads }),
		StoresRetired: d(func(s mesif.Stats) uint64 { return s.Writes }),
		L1Hit:         src(mesif.SrcL1),
		L2Hit:         src(mesif.SrcL2),
		L3Hit:         src(mesif.SrcL3) + src(mesif.SrcL3CoreSnoop) + src(mesif.SrcCoreForward),
		XSNPHitM:      src(mesif.SrcCoreForward),
		XSNPHit:       src(mesif.SrcL3CoreSnoop),
		LocalDRAM:     local,
		RemoteDRAM:    remote,
		RemoteFwd:     src(mesif.SrcPeerL3) + src(mesif.SrcPeerL3CoreSnoop) + src(mesif.SrcPeerCore),
		SnoopsSent:    d(func(s mesif.Stats) uint64 { return s.SnoopsSent }),
		SnoopsQPI:     d(func(s mesif.Stats) uint64 { return s.SnoopsQPI }),
		DirCacheHits:  d(func(s mesif.Stats) uint64 { return s.DirHits }),
		DirBroadcasts: d(func(s mesif.Stats) uint64 { return s.Broadcasts }),
	}
}

// String renders a reading like a perf-stat report, skipping zero counters.
func (c Counts) String() string {
	var b strings.Builder
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := c[Event(k)]; v != 0 {
			fmt.Fprintf(&b, "%14d  %s\n", v, k)
		}
	}
	return b.String()
}

// Rate returns event per reference-event ratios (e.g. remote forwards per
// load), guarding against zero denominators.
func (c Counts) Rate(ev, per Event) float64 {
	if c[per] == 0 {
		return 0
	}
	return float64(c[ev]) / float64(c[per])
}
