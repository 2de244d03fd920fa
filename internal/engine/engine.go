package engine

// engine.go is the first file to import nps, ahead of live_adapter.go's
// daemon and vivaldi: the linker lays packages out in first-import order,
// and with nps later gnp's solver loop lost its cache-line alignment —
// figs_nps wall_s +16 % with no code of its own changed.
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
// registered scenario by implementing it. What a system can do beyond
// this interface is decided once, by the capability rule (checkRun), before
// any unit is built.
type CoordSystem interface {
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

	// RemoveTaps uninstalls the given nodes' attack taps — the teardown
	// half of Inject, used by campaign phases that end mid-run.
	RemoveTaps(ids []int)

	// EligibleAttacker reports whether node i may be drawn malicious
	// (NPS landmarks, assumed secure, are not).
	EligibleAttacker(i int) bool

	// Evaluable reports whether node i participates in accuracy
	// aggregates (NPS landmarks have pinned coordinates and do not).
	Evaluable(i int) bool

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

// springSystem is what both Vivaldi backends share beyond CoordSystem: the
// spring graph (SelDegree) and the per-node and per-link mutations churn
// and partition phases apply. Only Vivaldi runs use it, and the capability
// rule rejects every other run that asks for it, so callers assert it
// without an ok branch.
type springSystem interface {
	CoordSystem
	ResetNode(i int)
	Neighbors(i int) []int
	ApplyPartition(a, b []bool) int
	HealPartition(id int)
}

var (
	_ springSystem = (*vivaldiAdapter)(nil)
	_ springSystem = (*liveSystem)(nil)
)

// npsDeployment is the NPS-only read side — layers and security-filter
// decisions — on the concrete adapter. Callers reach it only for runs
// whose kind is NPS.
func npsDeployment(cs CoordSystem) *nps.System { return cs.(*npsAdapter).sys }
