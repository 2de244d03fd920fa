// Package vivaldi implements the Vivaldi decentralized network coordinate
// system (Dabek et al., SIGCOMM 2004) exactly as described in §3.2 of the
// paper under reproduction: spring relaxation with an adaptive timestep
// weighted by local and remote error estimates.
//
// The package has two layers. Node is the pure per-host algorithm (reused
// by the live UDP daemon); System runs a population of Nodes against a
// latency.Substrate (dense matrix, packed triangle or on-demand model)
// with the paper's neighbour structure (64 springs per node, half of them
// to hosts closer than 50 ms) and exposes the probe-response hook that
// the attack framework (internal/core) taps.
//
// Population state lives in a coordspace.Store — one flat []float64
// holding every coordinate — so the per-tick sweep is cache-linear and the
// update rule runs in place with no allocation; Node shares the same flat
// kernel through a one-slot store. Coord values are materialised only at
// the API boundary (Coord, Coords, Probe).
package vivaldi

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/randx"
)

// Config holds the algorithm and population parameters. Zero fields take
// the paper's recommended values via withDefaults.
type Config struct {
	Space coordspace.Space

	// Cc is the constant fraction for the adaptive timestep δ = Cc·w
	// (paper: 0.25).
	Cc float64

	// ConstantDelta, when positive, replaces the adaptive timestep with a
	// fixed δ, ignoring the error-balancing weight entirely. This is an
	// ablation knob: the disorder attack works by reporting ej = 0.01 to
	// inflate w, so removing the adaptive timestep quantifies how much of
	// the attack's power comes from exploiting it (DESIGN.md §5).
	ConstantDelta float64

	// Neighbors is the number of springs per node (paper: 64).
	// CloseNeighbors of them are chosen among hosts with RTT below
	// CloseThreshold ms (paper: 32 below 50 ms).
	Neighbors      int
	CloseNeighbors int
	CloseThreshold float64

	// InitialError is the starting local error estimate (1.0, meaning
	// "entirely unsure").
	InitialError float64

	// MaxError clamps the local error estimate for numeric sanity; it does
	// not bound the *measured* system error. The floor avoids the
	// absorbing state w=0.
	MaxError float64
	MinError float64

	// SampleGuard, when set, inspects every sample an honest node is
	// about to apply; it may sanitize the response or reject it outright
	// (second return false). The paper's plain configuration leaves this
	// nil; internal/defense installs guards here to evaluate the
	// mitigations sketched as future work in §6.
	SampleGuard func(node int, resp ProbeResponse, view View) (ProbeResponse, bool)

	// Harden enables serf's production refinements (latency-filter
	// medians, distance adjustment, gravity, neighbor decay — see
	// Hardening). The zero value keeps the paper's plain algorithm,
	// bit-identically. When the latency filter is on, the guard inspects
	// the *filtered* RTT: the filter models the measurement layer, the
	// guard models admission policy on what that layer reports.
	Harden Hardening
}

func (c Config) withDefaults() Config {
	if c.Space.Dims == 0 {
		c.Space = coordspace.Euclidean(2)
	}
	if c.Cc == 0 {
		c.Cc = 0.25
	}
	if c.Neighbors == 0 {
		c.Neighbors = 64
	}
	if c.CloseNeighbors == 0 {
		c.CloseNeighbors = 32
	}
	if c.CloseNeighbors > c.Neighbors {
		// The close quota is part of the spring count, never more than it
		// (Neighbors: 16 against the default quota of 32).
		c.CloseNeighbors = c.Neighbors
	}
	if c.CloseThreshold == 0 {
		c.CloseThreshold = 50
	}
	if c.InitialError == 0 {
		c.InitialError = 1
	}
	if c.MaxError == 0 {
		c.MaxError = 250
	}
	if c.MinError == 0 {
		c.MinError = 1e-4
	}
	return c
}

// Resolved returns the configuration with every zero field replaced by
// its default — what a System or Node built from c actually runs. Callers
// that must agree with a population on its geometry (the live engine
// backend sizing its flat store) resolve first.
func (c Config) Resolved() Config { return c.withDefaults() }

// ProbeResponse is what a probing node learns from one measurement: the
// probed node's reported coordinate and error estimate, and the RTT the
// prober measured (which a malicious responder may have inflated by
// delaying the probe — it can never be shortened). Inside a tick, Coord
// is a view of a buffer the tick reuses (see Tap); a response returned by
// System.Probe owns its coordinate.
type ProbeResponse struct {
	Coord coordspace.Coord
	Error float64
	RTT   float64 // milliseconds
}

func clampErr(cfg Config, e float64) float64 {
	if math.IsNaN(e) || e < cfg.MinError {
		return cfg.MinError
	}
	if e > cfg.MaxError {
		return cfg.MaxError
	}
	return e
}

// applyRule applies one measurement sample to slot i of st using the §3.2
// rules:
//
//	w  = ei / (ei + ej)
//	es = | ‖xi−xj‖ − rtt | / rtt
//	δ  = Cc · w
//	xi = xi + δ · (rtt − ‖xi−xj‖) · u(xi − xj)
//	ei = es·w + ei·(1−w)
//
// The displacement happens in place on the flat store; dir is stride-sized
// scratch for the unit vector, so a steady-state update allocates nothing.
// Samples with non-positive RTT or invalid remote coordinates are ignored,
// and a displacement that would produce a non-finite coordinate leaves
// local state untouched, however hostile the sample. The return reports
// whether the sample was applied — the hardening pipeline's adjustment
// and gravity stages run only on applied samples.
func applyRule(cfg Config, st *coordspace.Store, i int, errp *float64, rng *rand.Rand, resp ProbeResponse, dir []float64) bool {
	if resp.RTT <= 0 || !cfg.Space.Compatible(resp.Coord) {
		return false
	}
	ej := resp.Error
	if math.IsNaN(ej) || ej < 0 {
		return false
	}
	if ej < cfg.MinError {
		ej = cfg.MinError
	}
	ei := *errp
	w := ei / (ei + ej)
	dist := st.UnitToCoord(i, resp.Coord, dir, rng)
	if math.IsInf(dist, 0) {
		return false // absurd remote coordinate; distance overflowed
	}
	es := math.Abs(dist-resp.RTT) / resp.RTT
	delta := cfg.Cc * w
	if cfg.ConstantDelta > 0 {
		delta = cfg.ConstantDelta
	}
	if !st.DisplaceAt(i, dir, delta*(resp.RTT-dist)) {
		return false // never corrupt local state
	}
	*errp = clampErr(cfg, es*w+ei*(1-w))
	return true
}

// Node is the per-host Vivaldi state machine: a one-slot coordinate store
// driven by the same flat update kernel the population simulation uses, so
// a steady-state Update allocates nothing.
type Node struct {
	cfg  Config
	st   *coordspace.Store
	err  float64
	rng  *rand.Rand
	dir  []float64   // stride-sized scratch for the update kernel
	hard *nodeHarden // nil unless Config.Harden enables something
}

// NewNode returns a node at the origin with the initial error estimate.
func NewNode(cfg Config, rng *rand.Rand) *Node {
	cfg = cfg.withDefaults()
	if cfg.Harden.Enabled() {
		if err := cfg.Harden.Validate(); err != nil {
			panic(err.Error())
		}
	}
	st := coordspace.NewStore(cfg.Space, 1)
	return &Node{
		cfg:  cfg,
		st:   st,
		err:  cfg.InitialError,
		rng:  rng,
		dir:  make([]float64, st.Stride()),
		hard: newNodeHarden(cfg.Harden, cfg.Space),
	}
}

// Coord returns a copy of the node's current coordinate.
func (n *Node) Coord() coordspace.Coord { return n.st.CoordAt(0) }

// ViewCoord returns the node's coordinate as a zero-allocation view
// aliasing internal state — valid only until the next Update. The live
// daemon's response path reads it once per probe answered.
func (n *Node) ViewCoord() coordspace.Coord { return n.st.ViewAt(0) }

// Error returns the node's current local error estimate.
func (n *Node) Error() float64 { return n.err }

// Update applies one measurement sample (see applyRule) with no peer
// attribution — the per-spring latency filter is skipped because the
// sample cannot be assigned a ring. Callers that know the responder (the
// live daemon keys by source host index) use UpdateFrom instead.
func (n *Node) Update(resp ProbeResponse) { n.UpdateFrom(-1, resp) }

// UpdateFrom applies one measurement sample attributed to peer, running
// the hardened pipeline when Config.Harden enables it: per-peer latency
// filter → §3.2 update rule → adjustment and gravity on applied samples —
// the same sequence System.applySample runs, minus the population-level
// sample guard (admission policy on a live host lives in the daemon, not
// here). peer < 0 skips the filter.
func (n *Node) UpdateFrom(peer int, resp ProbeResponse) {
	if n.hard != nil && n.hard.opts.LatencyWindow > 0 && peer >= 0 && resp.RTT > 0 {
		resp.RTT = n.hard.filterRTT(peer, resp.RTT)
	}
	if !applyRule(n.cfg, n.st, 0, &n.err, n.rng, resp, n.dir) {
		return
	}
	if n.hard != nil {
		if n.hard.opts.AdjustmentWindow > 0 {
			n.hard.updateAdjustment(n.st, resp)
		}
		if n.hard.opts.GravityRho > 0 {
			n.hard.applyGravity(n.st, n.dir)
		}
	}
}

// Adjustment returns the node's current distance adjustment term — 0 when
// the adjustment refinement is off. Like System.Adjustments, it applies
// to distance estimates only, never to the update rule.
func (n *Node) Adjustment() float64 {
	if n.hard == nil {
		return 0
	}
	return n.hard.adj
}

// SyncInto copies the node's coordinate into slot i of dst (which must
// share the node's space) — the live engine backend's barrier readout,
// allocation-free unlike Coord.
func (n *Node) SyncInto(dst *coordspace.Store, i int) {
	dst.CopySlotFrom(i, n.st, 0)
}

// Config returns the node's effective configuration (defaults resolved).
func (n *Node) Config() Config { return n.cfg }

// Reset returns the node to its just-joined state (origin coordinate,
// initial error, cleared hardening windows) — the per-host half of
// modelling churn on a live population: the departing host's address is
// taken by a fresh join.
func (n *Node) Reset() {
	n.st.SetZeroAt(0)
	n.err = n.cfg.InitialError
	if n.hard != nil {
		n.hard.reset()
	}
}

// Tap is the probe-path interception point used by the attack framework.
// When node `prober` measures the tap's owner, Respond receives the honest
// response and returns what the prober actually observes. The system
// enforces that a tap cannot report an RTT below the honest one (delays
// only, §5.3.2).
//
// Ownership is release-on-return, copy-to-retain, like a simnet receive
// handler's packet: honest.Coord and whatever view.Coord returns are
// read-only views of the tick-start snapshot, valid until Respond returns.
// A tap that wants one for later copies it (core.VivaldiFrogBoil clones
// the honest coordinate at first contact and drifts from that copy). The
// Coord a tap returns may alias its own scratch, the honest view or a fixed
// field: the caller copies it before it consults any tap again.
type Tap interface {
	Respond(prober int, honest ProbeResponse, view View) ProbeResponse
}

// View is the read-only system state available to taps (an attacker can
// learn coordinates by probing, so this models public knowledge) and to
// sample guards. Inside a tick, Coord returns a view of the tick-start
// snapshot under Tap's ownership rule: read-only, copy to keep. System
// itself is the out-of-tick View and returns copies.
type View interface {
	Space() coordspace.Space
	Coord(i int) coordspace.Coord
	LocalError(i int) float64
	TrueRTT(i, j int) float64
	Tick() int
	Size() int
}

// System simulates a Vivaldi population over a latency matrix. All
// coordinates live in one flat coordspace.Store; error estimates in a flat
// []float64 alongside it.
type System struct {
	cfg       Config
	m         latency.Substrate
	store     *coordspace.Store
	errs      []float64
	neighbors [][]int
	taps      []Tap
	rngs      []*rand.Rand
	srcs      []rand.Source // rngs[i]'s source, kept so Clone can copy the stream
	tick      int
	cuts      []linkCut // active partitions (usually none)
	cutSeq    int
	par       *parallelScratch // reusable per-tick buffers (see scratch)
	hard      *hardenState     // nil unless Config.Harden enables something
}

// linkCut is one active partition of the probe graph: probes between the
// two node sets are suppressed in both directions.
type linkCut struct {
	id   int
	a, b []bool
}

var _ View = (*System)(nil)

// NewSystem builds a population of m.Size() nodes with the paper's
// neighbour structure, deterministically from seed.
func NewSystem(m latency.Substrate, cfg Config, seed int64) *System {
	return NewSystemSharded(m, cfg, seed, nil)
}

// NewSystemSharded is NewSystem with stream seeding and neighbour selection
// sharded across sh (nil = serial). Every node's update stream and spring
// set derive from (seed, node id) alone, so construction is bit-identical
// to the serial form for any worker count — worth using at 5k+ nodes, where
// the two are the dominant startup cost after substrate generation.
func NewSystemSharded(m latency.Substrate, cfg Config, seed int64, sh Sharder) *System {
	cfg = cfg.withDefaults()
	n := m.Size()
	s := &System{
		cfg:   cfg,
		m:     m,
		store: coordspace.NewStore(cfg.Space, n),
		errs:  make([]float64, n),
		taps:  make([]Tap, n),
		rngs:  make([]*rand.Rand, n),
		srcs:  make([]rand.Source, n),
	}
	if sh == nil {
		sh = serialSharder{}
	}
	sh.ForEach(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.srcs[i] = rand.NewSource(randx.DeriveSeed(seed, "vivaldi-node", i))
			s.rngs[i] = rand.New(s.srcs[i])
			s.errs[i] = cfg.InitialError
		}
	})
	s.neighbors = NeighborSets(m, cfg, seed, sh)
	if cfg.Harden.Enabled() {
		if err := cfg.Harden.Validate(); err != nil {
			panic(err.Error())
		}
		s.hard = newHardenState(cfg.Harden, cfg.Space, s.neighbors)
	}
	return s
}

// Clone returns an independent copy of the population at its current tick
// that continues bit-identically. What ticks mutate is copied (coordinates,
// error estimates, every node's stream mid-sequence, tick and cut
// counters, hardening rings); what construction fixed is shared (substrate,
// spring sets, the Config and with it any SampleGuard); the per-tick
// scratch is rebuilt on the copy's first tick, because its closures
// capture the receiver. Taps carry private mutable state this package
// cannot copy and a partition's masks belong to whoever applied it, so
// Clone panics unless both are absent.
func (s *System) Clone() *System {
	if len(s.cuts) != 0 {
		panic("vivaldi: Clone with a partition active")
	}
	n := s.Size()
	c := *s
	c.store = coordspace.NewStore(s.cfg.Space, n)
	c.store.CopyFrom(s.store)
	c.errs = slices.Clone(s.errs)
	c.taps = make([]Tap, n)
	c.rngs = make([]*rand.Rand, n)
	c.srcs = make([]rand.Source, n)
	for i := range c.rngs {
		if s.taps[i] != nil {
			panic("vivaldi: Clone with a tap installed")
		}
		c.srcs[i] = randx.CopySource(s.srcs[i])
		c.rngs[i] = rand.New(c.srcs[i])
	}
	c.cuts, c.par = nil, nil
	if s.hard != nil {
		c.hard = s.hard.clone()
	}
	return &c
}

// NeighborSets builds the paper's spring structure for every node of m —
// per-node derived RNG streams, so the result is bit-identical for any
// worker count — and is exactly what NewSystemSharded gives its
// population. It is exported so the live engine backend can wire the same
// neighbour graph over real message exchange: at a fixed seed, the
// in-memory simulation and the live daemons probe the same springs.
func NeighborSets(m latency.Substrate, cfg Config, seed int64, sh Sharder) [][]int {
	cfg = cfg.withDefaults()
	n := m.Size()
	sets := make([][]int, n)
	pick := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sets[i] = pickNeighbors(m, i, cfg, randx.NewDerived(seed, "vivaldi-neighbors", i))
		}
	}
	if sh == nil {
		sh = serialSharder{}
	}
	sh.ForEach(n, pick)
	return sets
}

// neighborScanLimit is the population size above which spring selection
// samples candidates instead of classifying every host: a full scan is
// O(n) substrate lookups per node — O(n²) per system — which at 25k+
// nodes on the model backend would dwarf the simulation itself.
const neighborScanLimit = 4096

// pickNeighbors selects the paper's spring set for node i: up to
// CloseNeighbors hosts with RTT below CloseThreshold, topped up to
// Neighbors with random other hosts.
func pickNeighbors(m latency.Substrate, i int, cfg Config, rng *rand.Rand) []int {
	n := m.Size()
	if n-1 <= cfg.Neighbors {
		all := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				all = append(all, j)
			}
		}
		return all
	}
	if n > neighborScanLimit {
		return sampleNeighbors(m, i, cfg, rng)
	}
	var close, far []int
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		if m.RTT(i, j) < cfg.CloseThreshold {
			close = append(close, j)
		} else {
			far = append(far, j)
		}
	}
	rng.Shuffle(len(close), func(a, b int) { close[a], close[b] = close[b], close[a] })
	rng.Shuffle(len(far), func(a, b int) { far[a], far[b] = far[b], far[a] })

	want := cfg.Neighbors
	set := make([]int, 0, want)
	nc := cfg.CloseNeighbors
	if nc > len(close) {
		nc = len(close)
	}
	set = append(set, close[:nc]...)
	for _, j := range far {
		if len(set) == want {
			break
		}
		set = append(set, j)
	}
	// Not enough far hosts: top up from the remaining close ones.
	for _, j := range close[nc:] {
		if len(set) == want {
			break
		}
		set = append(set, j)
	}
	return set
}

// sampleNeighbors is the large-population spring selection: candidates
// are drawn uniformly at random and classified until the close quota is
// met (or a scan budget is exhausted), instead of measuring all n−1
// hosts. The resulting structure is the same — CloseNeighbors springs
// below CloseThreshold where the topology offers them, random far
// springs for the rest — at O(1) expected substrate lookups per spring.
func sampleNeighbors(m latency.Substrate, i int, cfg Config, rng *rand.Rand) []int {
	n := m.Size()
	want := cfg.Neighbors
	budget := 48 * want // expected close fraction ~0.1 ⇒ quota met well within this
	picked := make(map[int]bool, 2*want)
	close := make([]int, 0, cfg.CloseNeighbors)
	far := make([]int, 0, want)
	for scanned := 0; scanned < budget && len(close) < cfg.CloseNeighbors; scanned++ {
		j := rng.Intn(n)
		if j == i || picked[j] {
			continue
		}
		if m.RTT(i, j) < cfg.CloseThreshold {
			picked[j] = true
			close = append(close, j)
		} else if len(far) < want {
			picked[j] = true
			far = append(far, j)
		}
	}
	// Fill the remainder of the spring set with far hosts (cheap: almost
	// every uniform draw is far).
	needFar := want - len(close)
	if len(far) > needFar {
		far = far[:needFar]
	}
	for len(far) < needFar {
		j := rng.Intn(n)
		if j != i && !picked[j] {
			picked[j] = true
			far = append(far, j)
		}
	}
	return append(close, far...)
}

// Size returns the population size.
func (s *System) Size() int { return len(s.errs) }

// Space returns the embedding space.
func (s *System) Space() coordspace.Space { return s.cfg.Space }

// Config returns the effective configuration (defaults resolved).
func (s *System) Config() Config { return s.cfg }

// Tick returns the number of completed simulation ticks.
func (s *System) Tick() int { return s.tick }

// Coord returns a copy of node i's coordinate.
func (s *System) Coord(i int) coordspace.Coord { return s.store.CoordAt(i) }

// Coords returns copies of all coordinates, indexed by node.
func (s *System) Coords() []coordspace.Coord { return s.store.Coords() }

// Store returns the live flat coordinate store. It is the engine's
// measurement path; treat it as read-only outside this package.
func (s *System) Store() *coordspace.Store { return s.store }

// LocalError returns node i's local error estimate.
func (s *System) LocalError(i int) float64 { return s.errs[i] }

// TrueRTT returns the underlying matrix RTT between i and j.
func (s *System) TrueRTT(i, j int) float64 { return s.m.RTT(i, j) }

// Substrate returns the underlying latency substrate.
func (s *System) Substrate() latency.Substrate { return s.m }

// Neighbors returns node i's spring set (not a copy; do not mutate).
func (s *System) Neighbors(i int) []int { return s.neighbors[i] }

// applySample runs the hardened update pipeline for one probe response
// observed by node i on its spring springIdx: latency filter → sample
// guard → §3.2 update rule → adjustment and gravity on applied samples.
// The filter precedes the guard deliberately — the filter models the
// measurement layer, the guard models admission policy on what that layer
// reports (see Config.Harden). view is what the guard inspects — the
// tick-start snapshot — and dir is node i's unit-vector scratch.
//
// With hardening off this reduces exactly to the pre-hardening guard +
// update sequence: same branches, same RNG consumption, bit-identical
// coordinates (pinned by the equivalence suite in internal/engine).
func (s *System) applySample(i, springIdx int, resp ProbeResponse, view View, dir []float64) {
	if s.hard != nil && s.hard.opts.LatencyWindow > 0 && springIdx >= 0 && resp.RTT > 0 {
		resp.RTT = s.hard.filterRTT(i, springIdx, s.tick, resp.RTT)
	}
	if s.cfg.SampleGuard != nil {
		var ok bool
		if resp, ok = s.cfg.SampleGuard(i, resp, view); !ok {
			return
		}
	}
	if !applyRule(s.cfg, s.store, i, &s.errs[i], s.rngs[i], resp, dir) {
		return
	}
	if s.hard != nil {
		if s.hard.opts.AdjustmentWindow > 0 {
			s.hard.updateAdjustment(s.store, i, resp)
		}
		if s.hard.opts.GravityRho > 0 {
			s.hard.applyGravity(s.store, i, dir)
		}
	}
}

// ResetNode returns node i to its just-joined state (origin coordinate,
// initial error, cleared hardening windows). Experiments use it to model
// churn: a departing host's slot is taken by a fresh join that must
// re-converge from scratch.
func (s *System) ResetNode(i int) {
	s.store.SetZeroAt(i)
	s.errs[i] = s.cfg.InitialError
	if s.hard != nil {
		s.hard.resetNode(i, len(s.neighbors[i]))
	}
}

// Adjustments returns the per-node distance adjustment terms, or nil when
// the adjustment refinement is off. The terms apply to distance
// *estimates* — the engine's measurement pass adds adj[i]+adj[j] to every
// predicted distance — never to the update rule itself (serf's split).
// The returned slice aliases live state; treat it as read-only.
func (s *System) Adjustments() []float64 {
	if s.hard == nil {
		return nil
	}
	return s.hard.adj
}

// ApplyPartition severs the probe links between node sets a and b (both
// directions) and returns a handle for HealPartition. A node whose drawn
// target lies across a cut skips that tick's update — the probe "times
// out" — but its RNG stream still consumes the target draw, so healing
// the cut leaves every per-node stream exactly where an uncut run would
// have it. Masks are retained, not copied.
func (s *System) ApplyPartition(a, b []bool) int {
	s.cutSeq++
	s.cuts = append(s.cuts, linkCut{id: s.cutSeq, a: a, b: b})
	return s.cutSeq
}

// HealPartition removes the partition returned by ApplyPartition. Unknown
// ids are ignored.
func (s *System) HealPartition(id int) {
	for k := range s.cuts {
		if s.cuts[k].id == id {
			s.cuts = append(s.cuts[:k], s.cuts[k+1:]...)
			return
		}
	}
}

// linkBlocked reports whether an active cut suppresses probes between i
// and j. It runs inside the steady-state tick, so it is a plain
// bounds-checked mask sweep with an early exit when no cut is active.
func (s *System) linkBlocked(i, j int) bool {
	for k := range s.cuts {
		c := &s.cuts[k]
		ia := i < len(c.a) && c.a[i]
		ib := i < len(c.b) && c.b[i]
		ja := j < len(c.a) && c.a[j]
		jb := j < len(c.b) && c.b[j]
		if (ia && jb) || (ib && ja) {
			return true
		}
	}
	return false
}

// SetTap installs (or, with nil, removes) a probe tap on node i. All
// responses from i pass through the tap afterwards.
func (s *System) SetTap(i int, t Tap) { s.taps[i] = t }

// IsMalicious reports whether node i currently has a tap installed.
func (s *System) IsMalicious(i int) bool { return s.taps[i] != nil }

// consult passes an honest response through tap and enforces the one
// physical constraint on what it returns: a responder can delay a probe
// but never shorten it (§5.3.2).
func consult(tap Tap, prober int, honest ProbeResponse, view View) ProbeResponse {
	forged := tap.Respond(prober, honest, view)
	if forged.RTT < honest.RTT {
		forged.RTT = honest.RTT // delays only; cannot shorten physics
	}
	return forged
}

// Probe performs one measurement of j by i against the current state and
// returns what i observed: the true RTT plus j's reported state, passed
// through j's tap if one is installed. It is the out-of-tick inspection
// path (tests, demos), so the coordinate it returns is the caller's own;
// ticks resolve their probes against the tick-start snapshot in
// StepParallel.
func (s *System) Probe(i, j int) ProbeResponse {
	resp := ProbeResponse{
		Coord: s.store.ViewAt(j),
		Error: s.errs[j],
		RTT:   s.m.RTT(i, j),
	}
	if tap := s.taps[j]; tap != nil {
		resp = consult(tap, i, resp, s)
	}
	resp.Coord = resp.Coord.Clone() // the caller outlives the view and any tap scratch
	return resp
}

// Step runs one simulation tick on the calling goroutine: the inline form
// of StepParallel (one shard), bit-identical to it on any Sharder.
func (s *System) Step() { s.StepParallel(serialSharder{}) }

// Run executes n ticks.
func (s *System) Run(n int) {
	for t := 0; t < n; t++ {
		s.Step()
	}
}
