// Package mesif implements the MESIF cache-coherence protocol of the
// simulated Haswell-EP machine: the caching agents (one per L3 slice), the
// home agents (one per memory controller), and the read / write / flush
// transactions under the three snoop configurations the paper compares
// (source snoop, home snoop, and Cluster-on-Die with directory support).
//
// The engine executes transactions against the live cache, directory, and
// DRAM state of a machine.Machine and prices every step with the machine's
// latency model and ring/QPI topology. The returned latency of an access is
// the load-to-use time: the moment the data arrives at the requesting core.
// Transaction completion bookkeeping (snoop-response collection at the home
// agent) only gates the data when the protocol really withholds it — that
// distinction is what separates source snooping from home snooping on local
// memory (Section VI-B).
//
// An Engine is NOT safe for concurrent use: the simulated machine is one
// shared state, and transactions mutate it. Multi-core workloads are
// expressed as interleaved access sequences (see package workload), not as
// goroutines.
//
//hsw:tier engine
package mesif

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/directory"
	"haswellep/internal/fault"
	"haswellep/internal/machine"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// Source states where the data of an access was obtained.
type Source int

// Data sources, ordered roughly by distance.
const (
	// SrcL1 is a hit in the requesting core's L1D.
	SrcL1 Source = iota
	// SrcL2 is a hit in the requesting core's L2.
	SrcL2
	// SrcL3 is a hit in the requesting node's L3 served without a core
	// snoop.
	SrcL3
	// SrcL3CoreSnoop is a hit in the requesting node's L3 that required
	// snooping a core of the node (clean response; data still from L3).
	SrcL3CoreSnoop
	// SrcCoreForward is a modified line forwarded from another core's
	// private cache within the requesting node.
	SrcCoreForward
	// SrcPeerL3 is a line forwarded by another node's caching agent out
	// of its L3.
	SrcPeerL3
	// SrcPeerL3CoreSnoop is a forward from another node's L3 that also
	// required a clean core snoop inside that node.
	SrcPeerL3CoreSnoop
	// SrcPeerCore is a modified line forwarded from a core's private
	// cache in another node.
	SrcPeerCore
	// SrcMemory is data provided by a home agent from DRAM.
	SrcMemory
	// SrcMemoryForward is data provided from DRAM by the home agent on
	// the strength of a HitME directory-cache hit proving the line is
	// only shared (COD mode, Section VI-C / Figure 7).
	SrcMemoryForward

	// NumSources sizes fixed-width per-source counter arrays.
	NumSources
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcL3CoreSnoop:
		return "L3+core-snoop"
	case SrcCoreForward:
		return "core-forward"
	case SrcPeerL3:
		return "peer-L3"
	case SrcPeerL3CoreSnoop:
		return "peer-L3+core-snoop"
	case SrcPeerCore:
		return "peer-core"
	case SrcMemory:
		return "memory"
	case SrcMemoryForward:
		return "memory-forward"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Access is the result of one transaction.
type Access struct {
	// Latency is the load-to-use time of the access.
	Latency units.Time
	// Source is where the data came from.
	Source Source
	// Broadcast reports that the home agent had to broadcast snoops
	// because of a snoop-all directory state (COD mode).
	Broadcast bool
	// DirCacheHit reports a HitME directory-cache hit.
	DirCacheHit bool
	// RemoteDRAM mirrors the MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM
	// performance counter: data came from DRAM of another NUMA node.
	RemoteDRAM bool
	// RemoteFwd mirrors ...:REMOTE_FWD: data was forwarded by another
	// NUMA node's cache.
	RemoteFwd bool
	// FwdLevel is the private-cache level (1 or 2) a core-forward came
	// from; 0 when the data did not come out of a core's private cache.
	FwdLevel int
}

// Op classifies the three transaction kinds the engine executes.
type Op int

// Transaction kinds.
const (
	// OpRead is a demand load (Engine.Read).
	OpRead Op = iota
	// OpWrite is a store / read-for-ownership (Engine.Write).
	OpWrite
	// OpFlush is a coherent clflush (Engine.Flush).
	OpFlush
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Stats aggregates per-source access counts.
type Stats struct {
	BySource   map[Source]uint64
	Reads      uint64
	Writes     uint64
	Flushes    uint64
	Broadcasts uint64
	DirHits    uint64
	// SnoopsSent counts snoop messages issued to caching agents (by the
	// requesting CA in source snoop mode, by the home agent otherwise).
	SnoopsSent uint64
	// SnoopsQPI counts the subset of snoops that crossed a QPI link.
	SnoopsQPI uint64
	// RemoteDRAM counts reads served from another NUMA node's DRAM (the
	// MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM event).
	RemoteDRAM uint64
}

// Engine executes MESIF transactions on a machine.
type Engine struct {
	M *machine.Machine
	// WorkingSet is the resident footprint (bytes) of the access stream
	// currently being issued; it feeds the DRAM open-page model. Zero
	// means "large / no locality".
	WorkingSet int64

	// AfterTransaction, when non-nil, is invoked after every completed
	// Read, Write, and Flush with the operation kind, the issuing core,
	// and the line touched — after all cache, directory, and DRAM state
	// mutations of the transaction have been applied. It is the debug
	// hook package invariant attaches its machine-wide MESIF checker to;
	// nil (the default) costs nothing on the transaction path.
	AfterTransaction func(op Op, core topology.CoreID, l addr.LineAddr)

	// AfterAccess, when non-nil, is invoked like AfterTransaction but
	// additionally receives the completed Access (latency, source, and
	// counter bits). It fires BEFORE AfterTransaction, so a trace recorder
	// installed here has logged the transaction by the time a checker
	// chained on AfterTransaction inspects the machine — a violation's
	// repro bundle then contains the transaction that exposed it. Package
	// trace attaches its flight recorder to this hook.
	AfterAccess func(op Op, core topology.CoreID, l addr.LineAddr, a Access)

	// Faults, when non-nil, injects the faults of a fault.Plan into the
	// transaction paths (see fault.go in this package). nil — and any
	// injector whose plan has all-zero probabilities — leaves every
	// latency, statistic, and state transition exactly as the fault-free
	// engine produces them.
	Faults *fault.Injector

	stats engineStats

	// Dirty-set tracking (see SetDirtyTracking): when enabled, every
	// transaction records the set of lines whose cache entries, core-valid
	// bits, directory state, or HitME entries it may have touched, so an
	// incremental invariant checker can validate only those lines.
	trackDirty bool
	dirty      []addr.LineAddr
}

// engineStats is the engine's internal counter block: the fields of Stats
// with the per-source map flattened into a fixed array, so record stays
// allocation-free on the transaction path and ResetStats clears in place
// (no map churn on farm point resets). Stats() converts to the public map
// form.
type engineStats struct {
	bySource                           [NumSources]uint64
	reads, writes, flushes, broadcasts uint64
	dirHits, snoopsSent, snoopsQPI     uint64
	remoteDRAM                         uint64
}

// New builds an engine for the machine.
func New(m *machine.Machine) *Engine {
	return &Engine{M: m}
}

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats {
	out := Stats{
		Reads:      e.stats.reads,
		Writes:     e.stats.writes,
		Flushes:    e.stats.flushes,
		Broadcasts: e.stats.broadcasts,
		DirHits:    e.stats.dirHits,
		SnoopsSent: e.stats.snoopsSent,
		SnoopsQPI:  e.stats.snoopsQPI,
		RemoteDRAM: e.stats.remoteDRAM,
		BySource:   make(map[Source]uint64, NumSources),
	}
	for s, n := range e.stats.bySource {
		if n != 0 {
			out.BySource[Source(s)] = n
		}
	}
	return out
}

// ResetStats zeroes the statistics in place.
func (e *Engine) ResetStats() {
	e.stats = engineStats{}
}

// SetDirtyTracking enables (or disables) per-transaction dirty-set
// recording. While enabled, each Read, Write, and Flush starts a fresh set
// and the engine adds every line one of its state mutations may have
// affected: the requested line itself, private-cache eviction victims
// (including the cascading victims of fillCore/handleL1Victim/
// handleL2Victim), L3 capacity victims, lines displaced from a HitME
// directory cache by an allocation, and lines whose in-memory directory
// entry a fault corrupted and repaired. Lines only read — peeked caches,
// directory lookups, LRU touches of the requested line — are covered by the
// requested line's own membership.
//
// The contract the engine guarantees: after a transaction completes, any
// line NOT in the dirty set has exactly the same cache/directory/HitME
// standing it had before the transaction, so a per-line invariant check of
// the dirty set alone observes every state change the transaction made.
// (The inspection helpers EvictCached/EvictDirectoryCache mutate state
// outside any transaction and are deliberately not tracked.)
func (e *Engine) SetDirtyTracking(on bool) {
	e.trackDirty = on
	if !on {
		// Truncate, keeping capacity: re-enabling tracking (engine reuse
		// across farm points) then allocates nothing.
		e.dirty = e.dirty[:0]
	}
}

// DirtyLines returns the dirty set of the current (or, between
// transactions, the most recent) transaction. The returned slice is reused
// by the next transaction; callers that keep it must copy. Empty unless
// SetDirtyTracking(true) was called.
func (e *Engine) DirtyLines() []addr.LineAddr { return e.dirty }

// touch adds a line to the current transaction's dirty set. Membership is
// a linear scan: a transaction dirties the requested line plus a handful
// of victims, so scanning the small slice beats maintaining a map (and
// keeps the path allocation-free once the slice has grown).
func (e *Engine) touch(l addr.LineAddr) {
	if !e.trackDirty {
		return
	}
	for _, d := range e.dirty {
		if d == l {
			return
		}
	}
	e.dirty = append(e.dirty, l)
}

// lat is shorthand for the machine's latency model. It returns a pointer
// so the leg functions read single fields without copying the model.
func (e *Engine) lat() *machine.LatencyModel { return &e.M.Cfg.Lat }

// nsT converts nanoseconds to simulated time. Calibration boundary: the
// protocol engine's configured latencies are nanosecond quantities from the
// paper's tables, converted to integer picoseconds exactly once here.
//
//hsw:calibration configured nanosecond latencies enter sim time here
func nsT(v float64) units.Time { return units.FromNanoseconds(v) }

// record books a completed transaction into the statistics. Together with
// countSnoop it is the only place Engine statistics are mutated (enforced
// by the statsguard analyzer in tools/analyzers); the transaction logic in
// read.go and write.go returns plain Access values and the public wrappers
// record them exactly once.
func (e *Engine) record(op Op, a Access) Access {
	switch op {
	case OpRead:
		e.stats.reads++
		if a.RemoteDRAM {
			e.stats.remoteDRAM++
		}
	case OpWrite:
		e.stats.writes++
	case OpFlush:
		e.stats.flushes++
	}
	e.stats.bySource[a.Source]++
	if a.Broadcast {
		e.stats.broadcasts++
	}
	if a.DirCacheHit {
		e.stats.dirHits++
	}
	return a
}

// begin opens a new transaction: the dirty set restarts at {l} and the
// fault injector (if any) advances to the next transaction of its schedule.
// It is the single entry path of Read, Write, and Flush, mirroring finish.
func (e *Engine) begin(l addr.LineAddr) {
	if e.trackDirty {
		e.dirty = append(e.dirty[:0], l)
	}
	e.faultBegin()
}

// finish records the transaction and fires the AfterTransaction hook; it is
// the single exit path of Read, Write, and Flush. Fault-recovery penalties
// accumulated during the transaction are folded into the returned latency
// here, so every repair is priced exactly once.
func (e *Engine) finish(op Op, core topology.CoreID, l addr.LineAddr, a Access) Access {
	if e.Faults != nil {
		a.Latency += nsT(e.Faults.DrainPenaltyNs())
	}
	a = e.record(op, a)
	if e.AfterAccess != nil {
		e.AfterAccess(op, core, l, a)
	}
	if e.AfterTransaction != nil {
		e.AfterTransaction(op, core, l)
	}
	return a
}

// Do executes one transaction after validating the inputs; it is the entry
// point for untrusted (user- or fuzzer-controlled) cores and addresses —
// the workload runner, the fuzz targets, and cmd drivers use it. Read,
// Write, and Flush themselves treat an out-of-range core or an unmapped
// line as a programmer error and panic.
func (e *Engine) Do(op Op, core topology.CoreID, l addr.LineAddr) (Access, error) {
	if int(core) < 0 || int(core) >= e.M.Topo.Cores() {
		return Access{}, fmt.Errorf("mesif: core %d out of range (0..%d)", core, e.M.Topo.Cores()-1)
	}
	if _, err := e.M.HomeNode(l); err != nil {
		return Access{}, err
	}
	switch op {
	case OpRead:
		return e.Read(core, l), nil
	case OpWrite:
		return e.Write(core, l), nil
	case OpFlush:
		return e.Flush(core, l), nil
	default:
		return Access{}, fmt.Errorf("mesif: unknown operation %v", op)
	}
}

// --- cross-node lookup helpers -------------------------------------------

// nodeEntry describes a node's L3 standing for a line.
type nodeEntry struct {
	node  topology.NodeID
	slice topology.SliceID
	line  cache.Line
	ok    bool
}

// l3EntryOf returns node n's L3 entry for the line.
func (e *Engine) l3EntryOf(n topology.NodeID, l addr.LineAddr) nodeEntry {
	s := e.M.CAForNode(n, l)
	ln, ok := e.M.Slice(s).Lookup(l)
	return nodeEntry{node: n, slice: s, line: ln, ok: ok}
}

// forwarderAmong returns the node other than a and b whose L3 holds the
// line in a state the active protocol forwards from (M/E/F under MESIF,
// M/E under MESI, M/E/O under MOESI), if any. Every protocol guarantees at
// most one such node exists.
func (e *Engine) forwarderAmong(l addr.LineAddr, a, b topology.NodeID) (nodeEntry, bool) {
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		nn := topology.NodeID(n)
		if nn == a || nn == b {
			continue
		}
		ent := e.l3EntryOf(nn, l)
		if ent.ok && e.M.Proto.CanForward(ent.line.State) {
			return ent, true
		}
	}
	return nodeEntry{}, false
}

// homeForwarder returns the home node's L3 entry when a directory miss's
// mandatory local snoop finds it forwardable: the home node is not the
// requester's, and its L3 holds the line in a forwarding state.
func (e *Engine) homeForwarder(l addr.LineAddr, rn, hn topology.NodeID) (nodeEntry, bool) {
	if hn == rn {
		return nodeEntry{}, false
	}
	ent := e.l3EntryOf(hn, l)
	return ent, ent.ok && e.M.Proto.CanForward(ent.line.State)
}

// ownedForwarder returns the owner named by an owned HitME entry when the
// directed snoop finds it forwardable: exactly one owner, outside the
// requester's node, holding the line in a forwarding state. Otherwise the
// entry is stale.
func (e *Engine) ownedForwarder(v directory.PresenceVector, l addr.LineAddr, rn topology.NodeID) (nodeEntry, bool) {
	owner := topology.NodeID(v.Sole())
	if v.Count() != 1 || owner == rn {
		return nodeEntry{}, false
	}
	ent := e.l3EntryOf(owner, l)
	return ent, ent.ok && e.M.Proto.CanForward(ent.line.State)
}

// directoryMiss reports whether a private miss on the line is resolved by
// home snooping with the DAS directory: COD mode, or any home-snooped
// configuration with ForceDirectory set.
func (e *Engine) directoryMiss(l addr.LineAddr) bool {
	return e.M.Cfg.Mode.HomeSnooped() && e.M.HA(l).Dir != nil
}

// anyPeerHolds reports whether any node other than `exclude` caches the
// line in any valid state.
func (e *Engine) anyPeerHolds(l addr.LineAddr, exclude topology.NodeID) bool {
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		nn := topology.NodeID(n)
		if nn == exclude {
			continue
		}
		if ent := e.l3EntryOf(nn, l); ent.ok {
			return true
		}
	}
	return false
}

// sharerVector returns the presence vector of all nodes currently caching
// the line.
func (e *Engine) sharerVector(l addr.LineAddr) directory.PresenceVector {
	var v directory.PresenceVector
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		if ent := e.l3EntryOf(topology.NodeID(n), l); ent.ok {
			v = v.With(n)
		}
	}
	return v
}

// countSnoop books snoop messages from an origin socket to a target node.
func (e *Engine) countSnoop(fromSocket int, to topology.NodeID) {
	e.stats.snoopsSent++
	if e.M.Topo.SocketOfNode(to) != fromSocket {
		e.stats.snoopsQPI++
	}
}

// broadcastSnoops books one snoop from the origin socket to every node
// except a and b.
func (e *Engine) broadcastSnoops(fromSocket int, a, b topology.NodeID) {
	for n := 0; n < e.M.Topo.Nodes(); n++ {
		if nn := topology.NodeID(n); nn != a && nn != b {
			e.countSnoop(fromSocket, nn)
		}
	}
}

// coreOfValidBit maps a core-valid bit (die-local core index) of a slice's
// node to the global CoreID.
func (e *Engine) coreOfValidBit(sl topology.SliceID, bit int) topology.CoreID {
	sock := e.M.Topo.SocketOfSlice(sl)
	return topology.CoreID(sock*e.M.Topo.Die.Cores() + bit)
}

// soleOtherValidCore inspects a line's core-valid bits and returns the
// single core that must be snooped before the CA may serve the line:
// exactly one bit set, belonging to a core other than the requester, on a
// line in a unique state (E or M). With several bits set the line can only
// be Shared in the cores, so no snoop is needed (Section VI-A).
func (e *Engine) soleOtherValidCore(ent nodeEntry, requester topology.CoreID) (topology.CoreID, bool) {
	if !ent.line.State.Unique() {
		return 0, false
	}
	bits := ent.line.CoreValid
	if bits == 0 || bits&(bits-1) != 0 {
		return 0, false // zero or multiple sharers
	}
	// Exactly one bit: find it.
	bit := 0
	for bits>>uint(bit)&1 == 0 {
		bit++
	}
	c := e.coreOfValidBit(ent.slice, bit)
	if c == requester {
		return 0, false
	}
	return c, true
}

// hitmeLookup performs a HitME lookup when the home agent has a directory
// cache; machines built with DisableHitME have none and always miss. With
// an injector installed the lookup may lie in either direction: a false
// miss routes the request through the (pinned snoop-all) in-memory
// directory, a false hit fabricates an owned entry whose directed snoop
// finds nothing and falls back the same way — both recoveries end at
// correct data through the directory paths below the lookup.
func (e *Engine) hitmeLookup(ha *machine.HomeAgent, l addr.LineAddr) (directory.PresenceVector, directory.EntryKind, bool) {
	if ha.HitME == nil {
		return 0, directory.EntryShared, false
	}
	v, kind, hit := ha.HitME.Lookup(l)
	if e.Faults == nil {
		return v, kind, hit
	}
	if hit {
		if e.Faults.FalseMiss() {
			return 0, directory.EntryShared, false
		}
		return v, kind, hit
	}
	return e.faultHitMEFalseHit(ha, l)
}
