// Package cache implements the set-associative caches of the simulated
// machine: per-core L1D and L2 caches and the distributed, inclusive L3
// slices with per-core valid bits, all keeping 64-byte lines in coherence
// states with true-LRU replacement. The state set is the union over the
// supported protocols (MESIF, MESI, MOESI); which states a given machine
// may actually mint is the protocol's business (internal/coherence).
//
//hsw:tier engine
package cache

import "fmt"

// State is a coherence state of a cached line. It is a byte so that a
// cache Line packs into 16 bytes.
type State uint8

// The coherence states: the five MESIF states (Section IV-A) plus MOESI's
// Owned. Invalid is the zero value so an absent line naturally reads as
// Invalid. Owned is numbered after Forward so existing serialized states
// (repro bundles record states as integers) keep their meaning.
const (
	// Invalid: the line is not present / unusable.
	Invalid State = iota
	// Shared: one of possibly many clean read-only copies.
	Shared
	// Exclusive: the only cached copy, clean.
	Exclusive
	// Modified: the only cached copy, dirty.
	Modified
	// Forward: a clean shared copy designated to answer requests (MESIF
	// only). At most one Forward copy of a line exists system-wide.
	Forward
	// Owned: a dirty shared copy responsible for answering requests and
	// for the eventual write-back (MOESI only); memory is stale while an
	// Owned copy exists. At most one Owned copy exists system-wide.
	Owned
)

// String returns the canonical one-letter name plus word.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Forward:
		return "F"
	case Owned:
		return "O"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Valid reports whether the state denotes a usable copy.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the copy differs from memory (Modified or Owned).
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Unique reports whether the protocol guarantees no other cache holds the
// line (Exclusive or Modified).
func (s State) Unique() bool { return s == Exclusive || s == Modified }

// CanForward reports whether a MESIF cache holding the line in this state
// answers read requests with a cache-to-cache transfer (M, E, or F —
// Section IV-B). This is the MESIF rule only; the engine consults the
// active protocol (coherence.Protocol.CanForward), which folds in Owned
// for MOESI and excludes Forward for MESI.
func (s State) CanForward() bool {
	return s == Modified || s == Exclusive || s == Forward
}

// SharedLike reports whether the state is one of the clean-shared states
// (Shared or Forward).
func (s State) SharedLike() bool { return s == Shared || s == Forward }
