package machine

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/coherence"
	"haswellep/internal/directory"
	"haswellep/internal/dram"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// nodeStride is the address-space stride between NUMA nodes' memory: the
// physical address encodes the home node, mirroring a contiguous per-node
// memory map (64 GiB per node).
const nodeStride = addr.PAddr(64) * addr.PAddr(units.GiB)

// HomeAgent is the coherence controller of one memory controller: DRAM
// channels plus — in COD mode — the in-memory directory and the HitME
// directory cache.
type HomeAgent struct {
	Agent topology.AgentID
	DRAM  *dram.Controller
	Dir   *directory.InMemory
	HitME *directory.HitME
}

// Machine is the assembled simulated system.
type Machine struct {
	Cfg  Config
	Topo *topology.System
	// Proto is the coherence protocol resolved from Cfg.Protocol at
	// construction; the engine and the invariant checker consult it for
	// every protocol-specific rule.
	Proto coherence.Protocol

	// Cores holds the private caches of every core, indexed by global
	// CoreID.
	Cores []*cache.CoreCaches
	// L3 holds every L3 slice, indexed by global SliceID.
	L3 []*cache.L3Slice
	// HAs holds every home agent, indexed by global AgentID.
	HAs []*HomeAgent

	// OnAlloc, when non-nil, is invoked after every successful AllocOnNode
	// with the node, the requested size, and the region handed out. The
	// flight recorder (package trace) logs allocations through it so a
	// replay can re-issue them in order — allocation bases are a pure
	// function of the per-node allocation history.
	OnAlloc func(node topology.NodeID, size int64, r addr.Region)

	// OnReset, when non-nil, is invoked at the end of every Reset, after
	// all cached state has been dropped. Package trace logs resets through
	// it so a replayed run resets at the same points.
	OnReset func()

	// next allocation offset per NUMA node.
	allocOffset []addr.PAddr

	// Slice-hash decode table, built once at construction: every node of
	// a machine has the same slice count, so addr.SliceHash(l, n) is a
	// pure per-line function; hashMemo is a direct-mapped memo over it.
	// The transaction path and the invariant checker resolve the
	// responsible slice for the same line several times per transaction
	// (request route, snoop fan-out, per-node L3 gather), and the hash
	// ends in a division by a non-power-of-two slice count — the memo
	// turns the repeats into one table probe. Entries are never
	// invalidated: the memoized function depends only on the line address
	// and the (construction-time) geometry.
	slicesPerNode int
	hashMemo      []hashEnt
}

// hashEnt is one slot of the slice-hash memo. The zero entry (line 0,
// hash 0) is exactly what SliceHash returns for line 0, so a fresh table
// needs no validity flags.
type hashEnt struct {
	line addr.LineAddr
	hash int32
}

// hashMemoBits sizes the memo (power of two; 64 KiB of entries). It
// comfortably covers the revisit window of streaming workloads and the
// dirty sets of checker-attached runs.
const (
	hashMemoBits  = 12
	hashMemoSlots = 1 << hashMemoBits
)

// sliceHashOf resolves addr.SliceHash(l, slicesPerNode) through the memo.
func (m *Machine) sliceHashOf(l addr.LineAddr) int {
	e := &m.hashMemo[(uint64(l)*0x9e3779b97f4a7c15)>>(64-hashMemoBits)]
	if e.line != l {
		e.line = l
		e.hash = int32(addr.SliceHash(l, m.slicesPerNode))
	}
	return int(e.hash)
}

// New assembles a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.NewSystem(cfg.Sockets, cfg.Die, cfg.Mode == COD)
	if err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Topo: topo, Proto: coherence.MustGet(cfg.Protocol)}
	for c := 0; c < topo.Cores(); c++ {
		m.Cores = append(m.Cores, cache.NewCoreCaches(topo.LocalCore(topology.CoreID(c))))
	}
	for s := 0; s < topo.Slices(); s++ {
		m.L3 = append(m.L3, cache.NewL3Slice(topo.LocalSlice(topology.SliceID(s))))
	}
	for a := 0; a < topo.Agents(); a++ {
		ctl, err := dram.NewController(cfg.DRAM)
		if err != nil {
			return nil, err
		}
		ha := &HomeAgent{
			Agent: topology.AgentID(a),
			DRAM:  ctl,
		}
		if cfg.DirectoryEnabled() {
			ha.Dir = directory.NewInMemory()
			if !cfg.DisableHitME {
				if cfg.HitMEBytes > 0 {
					ha.HitME = directory.NewHitMESized(cfg.HitMEBytes)
				} else {
					ha.HitME = directory.NewHitME()
				}
			}
		}
		m.HAs = append(m.HAs, ha)
	}
	m.allocOffset = make([]addr.PAddr, topo.Nodes())
	m.slicesPerNode = len(topo.SlicesOfNode(0))
	m.hashMemo = make([]hashEnt, hashMemoSlots)
	return m, nil
}

// MustNew is New but panics on configuration errors; for tests and examples
// with static configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Reset drops all cached state — every private cache, L3 slice, directory
// and statistic — returning the machine to power-on state while keeping
// allocations valid.
func (m *Machine) Reset() {
	for _, cc := range m.Cores {
		cc.L1D.Clear()
		cc.L2.Clear()
	}
	for _, sl := range m.L3 {
		sl.Clear()
	}
	for _, ha := range m.HAs {
		ha.DRAM.ResetStats()
		if ha.Dir != nil {
			ha.Dir.Clear()
		}
		if ha.HitME != nil {
			ha.HitME.Clear()
		}
	}
	if m.OnReset != nil {
		m.OnReset()
	}
}

// AllocOnNode reserves size bytes of line-aligned memory homed on the given
// NUMA node (the simulator's equivalent of libnuma placement, Section V-B).
func (m *Machine) AllocOnNode(node topology.NodeID, size int64) (addr.Region, error) {
	if int(node) < 0 || int(node) >= m.Topo.Nodes() {
		return addr.Region{}, fmt.Errorf("machine: node %d out of range (0..%d)", node, m.Topo.Nodes()-1)
	}
	if size <= 0 {
		return addr.Region{}, fmt.Errorf("machine: allocation size must be positive, got %d", size)
	}
	aligned := (addr.PAddr(size) + addr.PAddr(addr.LineSize-1)) &^ addr.PAddr(addr.LineSize-1)
	off := m.allocOffset[node]
	if off+aligned > nodeStride {
		return addr.Region{}, fmt.Errorf("machine: node %d out of simulated memory", node)
	}
	base := nodeStride*addr.PAddr(node+1) + off
	m.allocOffset[node] = off + aligned
	r := addr.Region{Base: base, Size: int64(aligned)}
	if m.OnAlloc != nil {
		m.OnAlloc(node, size, r)
	}
	return r, nil
}

// MustAlloc is AllocOnNode but panics on error.
func (m *Machine) MustAlloc(node topology.NodeID, size int64) addr.Region {
	r, err := m.AllocOnNode(node, size)
	if err != nil {
		panic(err)
	}
	return r
}

// HomeNode returns the NUMA node whose memory holds the line, or an error
// for addresses outside every node's simulated memory (user-controlled
// addresses must go through this or HomeNodeOf, never MustHomeNode).
func (m *Machine) HomeNode(l addr.LineAddr) (topology.NodeID, error) {
	n, ok := m.HomeNodeOf(l)
	if !ok {
		return 0, fmt.Errorf("machine: line %#x outside any node's memory", l)
	}
	return n, nil
}

// MustHomeNode is HomeNode for lines already known to be mapped (allocated
// regions, cached state). Passing an unmapped line is a programmer error
// and panics.
func (m *Machine) MustHomeNode(l addr.LineAddr) topology.NodeID {
	n, ok := m.HomeNodeOf(l)
	if !ok {
		panic(fmt.Sprintf("machine: line %#x outside any node's memory", l))
	}
	return n
}

// HomeNodeOf is HomeNode without the panic: it reports ok=false for
// addresses outside every node's simulated memory (package invariant uses
// this to flag rogue line addresses found in corrupted cache state).
func (m *Machine) HomeNodeOf(l addr.LineAddr) (topology.NodeID, bool) {
	n := topology.NodeID(l.Addr()/nodeStride) - 1
	if int(n) < 0 || int(n) >= m.Topo.Nodes() {
		return 0, false
	}
	return n, true
}

// HomeAgentOf returns the home agent responsible for the line. In COD mode
// each node's memory is owned by its cluster's memory controller; in the
// default configuration a socket's memory is interleaved line-wise over
// both of its memory controllers (all four channels — Figure 1).
func (m *Machine) HomeAgentOf(l addr.LineAddr) topology.AgentID {
	node := m.MustHomeNode(l)
	if m.Cfg.Mode == COD {
		return m.Topo.AgentOfNode(node)
	}
	sock := m.Topo.SocketOfNode(node)
	imcs := m.Topo.Die.IMCs()
	return topology.AgentID(sock*imcs + int(uint64(l)%uint64(imcs)))
}

// HA returns the home agent object for a line.
func (m *Machine) HA(l addr.LineAddr) *HomeAgent {
	return m.HAs[m.HomeAgentOf(l)]
}

// ResponsibleCA returns the L3 slice (caching agent) that serves the line
// for the given core: the address hash selects among the slices of the
// core's NUMA node (Section IV-A).
func (m *Machine) ResponsibleCA(core topology.CoreID, l addr.LineAddr) topology.SliceID {
	return m.Topo.SlicesOfNode(m.Topo.NodeOfCore(core))[m.sliceHashOf(l)]
}

// CAForNode returns the slice serving the line within an arbitrary node.
func (m *Machine) CAForNode(node topology.NodeID, l addr.LineAddr) topology.SliceID {
	return m.Topo.SlicesOfNode(node)[m.sliceHashOf(l)]
}

// Slice returns the L3 slice object.
func (m *Machine) Slice(s topology.SliceID) *cache.L3Slice { return m.L3[s] }

// Core returns a core's private caches.
func (m *Machine) Core(c topology.CoreID) *cache.CoreCaches { return m.Cores[c] }

// --- ring stop resolution and leg costing -------------------------------

// stopOfCore returns the ring stop of a core on its die.
func (m *Machine) stopOfCore(c topology.CoreID) topology.Stop {
	return m.Topo.Die.CBoStop(m.Topo.LocalCore(c))
}

// stopOfSlice returns the ring stop of a slice on its die.
func (m *Machine) stopOfSlice(s topology.SliceID) topology.Stop {
	return m.Topo.Die.CBoStop(m.Topo.LocalSlice(s))
}

// stopOfAgent returns the ring stop of a home agent on its die.
func (m *Machine) stopOfAgent(a topology.AgentID) topology.Stop {
	return m.Topo.Die.IMCStop(m.Topo.LocalAgent(a))
}

// Endpoint identifies a transaction endpoint for leg costing.
type Endpoint struct {
	socket int
	stop   topology.Stop
}

// CoreEndpoint returns the endpoint of a core.
func (m *Machine) CoreEndpoint(c topology.CoreID) Endpoint {
	return Endpoint{socket: m.Topo.SocketOfCore(c), stop: m.stopOfCore(c)}
}

// SliceEndpoint returns the endpoint of an L3 slice / caching agent.
func (m *Machine) SliceEndpoint(s topology.SliceID) Endpoint {
	return Endpoint{socket: m.Topo.SocketOfSlice(s), stop: m.stopOfSlice(s)}
}

// AgentEndpoint returns the endpoint of a home agent.
func (m *Machine) AgentEndpoint(a topology.AgentID) Endpoint {
	return Endpoint{socket: m.Topo.SocketOfAgent(a), stop: m.stopOfAgent(a)}
}

// Socket returns the endpoint's socket.
func (e Endpoint) Socket() int { return e.socket }

// Leg returns the transport cost of one message from one endpoint to
// another: ring hops (and bridge crossings) on the source die, a QPI
// traversal when the sockets differ, and ring hops on the destination die.
// A degraded inter-socket link (Cfg.QPILatencyFactor > 1) stretches the
// QPI traversal only; on-die ring hops are unaffected.
func (m *Machine) Leg(from, to Endpoint) units.Time {
	lat := m.Cfg.Lat
	if from.socket == to.socket {
		return lat.PathCost(m.Topo.Die.HopPath(from.stop, to.stop))
	}
	qpi := m.Topo.Die.QPIStop()
	out := lat.PathCost(m.Topo.Die.HopPath(from.stop, qpi))
	in := lat.PathCost(m.Topo.Die.HopPath(qpi, to.stop))
	return out + ns(lat.QPITransit*m.Cfg.qpiLatencyFactor()) + in
}

// TrafficStats aggregates the machine-wide backing-store traffic counters:
// DRAM line reads and writes across every controller and in-memory
// directory entry writes across every home agent. The chaos report uses it
// to show how fault recovery inflates memory-side traffic.
type TrafficStats struct {
	DRAMReads  uint64
	DRAMWrites uint64
	DirWrites  uint64
}

// Traffic returns the machine-wide traffic counters.
func (m *Machine) Traffic() TrafficStats {
	var t TrafficStats
	for _, ha := range m.HAs {
		r, w := ha.DRAM.Stats()
		t.DRAMReads += r
		t.DRAMWrites += w
		if ha.Dir != nil {
			t.DirWrites += ha.Dir.Writes()
		}
	}
	return t
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s, coherence: %v", m.Topo.String(), m.Cfg.Mode)
}
