package engine

import (
	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/nps"
)

// SystemKind names a coordinate-system implementation.
type SystemKind string

// The systems the paper attacks.
const (
	SystemVivaldi SystemKind = "vivaldi"
	SystemNPS     SystemKind = "nps"
)

// CoordSystem is the engine's uniform view of a simulated coordinate
// system. Adapters over vivaldi.System and nps.System implement it; the
// scenario runner drives every experiment — attack injection, sharded tick
// execution, measurement — exclusively through this interface, so a new
// coordinate system (or a live-network backend) plugs into every
// registered scenario by implementing it.
type CoordSystem interface {
	// Kind identifies the implementation.
	Kind() SystemKind

	// Size returns the population size.
	Size() int

	// Space returns the embedding geometry.
	Space() coordspace.Space

	// Substrate returns the underlying latency substrate (dense matrix,
	// packed triangle, or on-demand model — see latency.BackendKind).
	Substrate() latency.Substrate

	// Step advances the system by one tick (Vivaldi) or positioning round
	// (NPS), sharding node updates across sh. Implementations must produce
	// bit-identical state for any worker count at a fixed seed.
	Step(sh Sharder)

	// Inject selects the attack implementation for spec and installs taps
	// on the given malicious nodes, deterministically from seed. It
	// returns what the attack decided (victim sets, designated target).
	Inject(spec AttackSpec, malicious []int, seed int64) (*Injection, error)

	// EligibleAttacker reports whether node i may be drawn malicious
	// (NPS landmarks, assumed secure, are not).
	EligibleAttacker(i int) bool

	// Evaluable reports whether node i participates in accuracy
	// aggregates (NPS landmarks have pinned coordinates and do not).
	Evaluable(i int) bool

	// Snapshot returns copies of all current coordinates — the boundary
	// representation, constructed on demand. Hot paths measure through
	// Store instead.
	Snapshot() []coordspace.Coord

	// Store returns the system's live flat coordinate store (read-only to
	// callers). Measurement sweeps it directly, so the O(n·k) pass is
	// cache-linear over one contiguous buffer.
	Store() *coordspace.Store

	// Measure writes every node's mean relative error against the true
	// matrix over its evaluation peers into out (length Size(); nil
	// allocates a fresh slice), sharded across sh, and returns it. Nodes
	// with include(i) false (nil = all) get NaN. Passing the same out
	// every sample keeps the steady-state measurement loop allocation-
	// free.
	Measure(peers [][]int, include func(int) bool, sh Sharder, out []float64) []float64

	// Clone returns an independent copy of the system at its current tick
	// that continues bit-identically — how the scenario runner lets the
	// runs of a sweep converge once and fork per attack. Callers fork only
	// at a barrier with no tap installed and no partition active (the
	// adapters panic otherwise: taps carry private mutable state). A
	// backend that cannot fork returns nil — the live backend, whose
	// scheduler has packets in flight.
	Clone() CoordSystem
}

// Injection records what an attack installation decided, for measurement:
// which nodes are malicious, the colluding victim set (if any), and the
// designated isolation target (-1 if none).
type Injection struct {
	Malicious []int
	MalSet    map[int]bool
	Victims   map[int]bool
	Target    int
}

// Optional CoordSystem capabilities, discovered by type assertion.

// FilterStatser is implemented by systems with a malicious-reference
// detection mechanism whose decisions the scenarios count (NPS).
type FilterStatser interface {
	FilterStats() nps.FilterStats
	ResetFilterStats()
}

// Layered is implemented by hierarchical systems (NPS): scenarios that
// study error propagation group final errors by layer.
type Layered interface {
	Layer(i int) int
	Layers() int
}

// Churner is implemented by systems that support membership churn: a
// departing host's slot is taken by a fresh join that re-converges from
// scratch.
type Churner interface {
	ResetNode(i int)
}
