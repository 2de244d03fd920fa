package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/latency"
	"repro/internal/vivaldi"
)

// RunSpec fully determines one simulated run (shared by all repetitions of
// it): population, geometry, attack mix and measurement options. RunSpecs
// are plain comparable values; the scenario runner dedupes identical specs
// across a scenario's series, so a clean reference used by several series
// simulates once.
type RunSpec struct {
	// Frac is the malicious fraction of the population.
	Frac float64

	// Attack is the attack mix injected after convergence.
	Attack AttackSpec

	// Nodes overrides the scale's population with an absolute size
	// (larger-than-paper workloads); 0 keeps it. NodesFrac overrides it
	// with a fraction of the scale's population (the paper's system-size
	// sweeps scale with the preset); Nodes wins if both are set.
	Nodes     int
	NodesFrac float64

	// Dims overrides the embedding dimension; 0 keeps the system default
	// (2-D for Vivaldi, 8-D for NPS). Height augments a Vivaldi space
	// with the access-link height component.
	Dims   int
	Height bool

	// Harden enables serf's production Vivaldi refinements for this run
	// (latency-filter medians, distance adjustment, gravity, neighbor
	// decay — see vivaldi.Hardening). The zero value keeps the paper's
	// plain algorithm bit-identically; non-zero values are Vivaldi-only
	// (Validate rejects them on NPS series). The height vector rides the
	// existing Height/Dims knobs, since it is an embedding-space choice.
	Harden vivaldi.Hardening

	// Layers is the NPS layer count; 0 keeps the default (3).
	Layers int

	// Security toggles the NPS malicious-reference detection.
	Security bool

	// ExcludeTarget keeps the colluding attack's designated target out of
	// the attacker draw (it must stay honest to be a victim).
	ExcludeTarget bool

	// TrackTarget additionally records the designated target's own error
	// series (fig. 10).
	TrackTarget bool

	// Genesis installs the attackers at tick zero — the attack context of
	// the paper's companion work — instead of after convergence.
	Genesis bool

	// MeasureFromStart samples from tick zero rather than from injection
	// (convergence studies). Genesis implies it.
	MeasureFromStart bool

	// ChurnFrac replaces this fraction of honest nodes with fresh joins
	// every measurement period during the attack phase. It must be in
	// [0, 1], and above 0 it needs Vivaldi (NPS has no churn path).
	ChurnFrac float64

	// Faults configures the live backend's network fault knobs for the
	// whole run (the x-axis of a loss sweep, for example). Non-zero
	// faults require the live backend: the in-memory engine has no packet
	// network, and a silent no-op would mislabel the output.
	Faults FaultSpec

	// Schedule, when set, attaches a chaos campaign: timed phases that
	// install and remove attack mixes, mutate fault knobs, partition the
	// network and fire churn bursts at measurement-period barriers (see
	// campaign.go). Held by pointer so RunSpec stays a comparable map key;
	// spec dedup is therefore by schedule identity — series that should
	// share a simulated run must share the *Schedule value.
	Schedule *Schedule

	// Substrate selects the latency backend for this run: dense (the
	// default), packed (float32 upper triangle, ≥4× smaller) or model
	// (O(n) state, RTTs recomputed on demand — the only backend that
	// fits 25k–50k-node populations). Empty defers to the scale's
	// Substrate override, then to dense. A run smaller than the scale's
	// population always uses a dense subgroup of the scale's base
	// substrate (subgroups are small by construction).
	Substrate latency.BackendKind

	// Backend selects how this run's population executes: the closed-form
	// in-memory engine (the default) or live message exchange — daemon
	// nodes over a virtual UDP network whose delays come from the run's
	// substrate, with coordinates read back at every tick barrier. Empty
	// defers to the scale's Backend override, then to memory. The live
	// backend implements Vivaldi only.
	Backend ExecBackend

	// XAxis says which x-value this run contributes to sweep outputs:
	// the malicious percentage (default), the resolved population size,
	// or the explicit X field.
	XAxis XAxis
	X     float64
}

// ExecBackend names a run execution backend (see RunSpec.Backend).
type ExecBackend string

// The selectable execution backends. The empty kind resolves to memory.
const (
	BackendMemory ExecBackend = "memory"
	BackendLive   ExecBackend = "live"
)

// ParseExecBackend resolves a backend name; empty means memory.
func ParseExecBackend(name string) (ExecBackend, error) {
	switch ExecBackend(name) {
	case "", BackendMemory:
		return BackendMemory, nil
	case BackendLive:
		return BackendLive, nil
	}
	return "", fmt.Errorf("engine: unknown execution backend %q (want memory or live)", name)
}

// XAxis selects a sweep run's x-value.
type XAxis int

// The x-axis kinds.
const (
	// XFracPct: the malicious fraction as a percentage (the default).
	XFracPct XAxis = iota
	// XNodes: the resolved population size.
	XNodes
	// XExplicit: the RunSpec's X field.
	XExplicit
)

// ResolveNodes returns the population a run simulates at a scale.
func (r RunSpec) ResolveNodes(sc Scale) int {
	if r.Nodes > 0 {
		return r.Nodes
	}
	if r.NodesFrac > 0 {
		return int(r.NodesFrac * float64(sc.Nodes))
	}
	return sc.Nodes
}

// XValue returns the x-axis value a run contributes at a scale.
func (r RunSpec) XValue(sc Scale) float64 {
	switch r.XAxis {
	case XNodes:
		return float64(r.ResolveNodes(sc))
	case XExplicit:
		return r.X
	}
	return r.Frac * 100
}

// SelectKind chooses which final-error population a CDF series draws from.
type SelectKind int

// The selectable populations.
const (
	// SelectHonest: all honest, evaluable nodes (the default).
	SelectHonest SelectKind = iota
	// SelectDeepestLayer: honest members of the system's deepest layer
	// (NPS error-propagation figures).
	SelectDeepestLayer
	// SelectVictims: the colluding attack's designated victims.
	SelectVictims
)

// SeriesSpec declares one curve of a figure: a label plus the runs that
// produce its points. Time-series and CDF outputs take exactly one run;
// sweep outputs take one run per x-value. System, when non-empty,
// overrides the scenario's coordinate system for this series — the
// multi-system overlay figures (hardenedOverlay) chart plain Vivaldi,
// hardened variants and NPS side by side in one reducer pass.
type SeriesSpec struct {
	Label  string
	Select SelectKind
	System SystemKind // optional override of ScenarioSpec.System
	Runs   []RunSpec
}

// OutputKind is how a scenario's run outcomes reduce to figure series.
type OutputKind int

// The reducers.
const (
	// OutRatioVsTime: relative error ratio (vs the clean reference) over
	// ticks/rounds.
	OutRatioVsTime OutputKind = iota
	// OutMeanVsTime: mean honest relative error over ticks/rounds.
	OutMeanVsTime
	// OutTargetVsTime: the designated target's own error over ticks.
	OutTargetVsTime
	// OutFinalCDF: CDF of final per-node errors (population per Select).
	OutFinalCDF
	// OutFinalVsX: final mean honest error at each run's X.
	OutFinalVsX
	// OutRatioVsX: final error ratio at each run's X.
	OutRatioVsX
	// OutFilterRatioVsX: malicious-filtered / total-filtered at each
	// run's X (NPS security filter precision).
	OutFilterRatioVsX
)

// ScenarioSpec declares one reproducible experiment: which coordinate
// system, which runs grouped into labelled series, and how outcomes reduce
// to figure data. Adding a workload — a new attack mix, churn, a
// larger-than-paper population — is a spec entry, not a new driver file.
type ScenarioSpec struct {
	Name   string // registry key: "fig01" ... "fig26", "extB", ...
	Figure string // paper figure ("Figure 1") or extension name
	Title  string
	XLabel string
	YLabel string

	System SystemKind
	Output OutputKind
	Series []SeriesSpec

	// Custom, when set, replaces the declarative runner entirely: the
	// scenario is produced by this function (used by experiments over
	// systems outside the engine, e.g. the PIC extension).
	Custom func(s Scale, pool *Pool) *Result
}

// EffectiveSystem resolves the coordinate system a series runs on: the
// series' own override when set, the scenario's system otherwise.
func (sp ScenarioSpec) EffectiveSystem(s SeriesSpec) SystemKind {
	if s.System != "" {
		return s.System
	}
	return sp.System
}

// Validate checks structural consistency — a system (or Custom), at least
// one series, the per-output run-count rules — and applies the capability
// rule (checkRun) to every run on the backend it pins.
func (sp ScenarioSpec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("engine: scenario with empty name")
	}
	if sp.Custom != nil {
		return nil
	}
	if sp.System != SystemVivaldi && sp.System != SystemNPS {
		return fmt.Errorf("engine: scenario %s: unknown system %q", sp.Name, sp.System)
	}
	if len(sp.Series) == 0 {
		return fmt.Errorf("engine: scenario %s: no series", sp.Name)
	}
	for _, s := range sp.Series {
		sys := sp.EffectiveSystem(s)
		if sys != SystemVivaldi && sys != SystemNPS {
			return fmt.Errorf("engine: scenario %s: series %q: unknown system %q", sp.Name, s.Label, sys)
		}
		if len(s.Runs) == 0 {
			return fmt.Errorf("engine: scenario %s: series %q has no runs", sp.Name, s.Label)
		}
		for _, r := range s.Runs {
			if _, err := latency.ParseBackend(string(r.Substrate)); err != nil {
				return fmt.Errorf("engine: scenario %s: series %q: %w", sp.Name, s.Label, err)
			}
			backend, err := ParseExecBackend(string(r.Backend))
			if err != nil {
				return fmt.Errorf("engine: scenario %s: series %q: %w", sp.Name, s.Label, err)
			}
			if err := checkRun(sys, backend, r); err != nil {
				return fmt.Errorf("engine: scenario %s: series %q: %w", sp.Name, s.Label, err)
			}
			if err := r.Harden.Validate(); err != nil {
				return fmt.Errorf("engine: scenario %s: series %q: %w", sp.Name, s.Label, err)
			}
			if err := r.Faults.validate(); err != nil {
				return fmt.Errorf("engine: scenario %s: series %q: %w", sp.Name, s.Label, err)
			}
			if r.Schedule != nil {
				if err := r.Schedule.validate(); err != nil {
					return fmt.Errorf("engine: scenario %s: series %q: %w", sp.Name, s.Label, err)
				}
			}
		}
		switch sp.Output {
		case OutRatioVsTime, OutMeanVsTime, OutTargetVsTime, OutFinalCDF:
			if len(s.Runs) != 1 {
				return fmt.Errorf("engine: scenario %s: series %q: time/CDF outputs take exactly one run, got %d",
					sp.Name, s.Label, len(s.Runs))
			}
		}
	}
	return nil
}

// Series is one labelled curve of a produced figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Result is a produced figure: labelled series plus free-form notes
// recording reference values (clean error, random baseline, filter stats).
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// The scenario registry.
var (
	regMu    sync.Mutex
	registry = map[string]ScenarioSpec{}
)

// Register adds a scenario; duplicate names and invalid specs panic
// (registration happens in init functions, where failing loudly at
// program start is the right behavior).
func Register(sp ScenarioSpec) {
	if err := sp.Validate(); err != nil {
		panic(err.Error())
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[sp.Name]; dup {
		panic("engine: duplicate scenario " + sp.Name)
	}
	registry[sp.Name] = sp
}

// Get looks a scenario up by name.
func Get(name string) (ScenarioSpec, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	sp, ok := registry[name]
	return sp, ok
}

// List returns all registered scenarios sorted by name.
func List() []ScenarioSpec {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]ScenarioSpec, 0, len(registry))
	for _, sp := range registry {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
