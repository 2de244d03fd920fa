// Package nps implements the Network Positioning System (Ng & Zhang,
// USENIX 2004) as described in §3.1 of the paper under reproduction: a
// hierarchical version of GNP in which 20 permanent landmarks anchor
// layer 0 and every node in layer i positions itself against reference
// points drawn from layer i−1, running the Simplex Downhill minimization
// locally.
//
// The package includes NPS's malicious-reference-point countermeasures,
// which the paper attacks directly:
//
//   - the security filter: after positioning, the reference point with the
//     largest fitting error ER is discarded iff max ER > 0.01 and
//     max ER > C·median(ER), with C = 4 — at most one per positioning;
//   - the probe threshold: measurements above 5 s are considered
//     suspicious and discarded.
//
// Landmarks are assumed honest and immovable (§5.4: "the ideal,
// hypothetical case where the landmarks are highly secure machines").
package nps

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"repro/internal/coordspace"
	"repro/internal/gnp"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/randx"
)

// Config parameterises an NPS deployment. Zero fields take the paper's
// values (§5.2) via withDefaults.
type Config struct {
	Space coordspace.Space // default 8-D Euclidean; height models unsupported

	// Layers is the total number of layers including layer 0 (the
	// landmarks). The paper experiments with 3 and 4.
	Layers int

	// NumLandmarks is the size of the fixed layer-0 infrastructure (20).
	NumLandmarks int

	// RefLayerFraction is the fraction of ordinary nodes assigned to each
	// intermediate (reference-point) layer (paper: 20%).
	RefLayerFraction float64

	// RefsPerNode is how many reference points each node measures against
	// (default 20, mirroring the landmark count).
	RefsPerNode int

	// Security toggles the malicious reference point detection mechanism.
	Security bool

	// SecurityC is the sensitivity constant C (paper: 4).
	SecurityC float64

	// FilterAll is an ablation knob: filter *every* reference point whose
	// fitting error satisfies the criterion instead of only the worst one
	// per positioning. The paper observes that "at most one reference
	// point gets filtered per positioning" hands colluders repeated
	// reprieves (§5.4.2); this measures what closing that loophole buys.
	FilterAll bool

	// MinFitError is the absolute fitting-error trigger (paper: 0.01).
	MinFitError float64

	// ProbeThresholdMS discards any probe whose measured RTT exceeds it
	// (paper: 5000 ms). Zero or negative disables the check.
	ProbeThresholdMS float64

	// SolveIterations caps the Simplex Downhill iterations per positioning
	// (performance knob; positioning warm-starts from the previous
	// estimate so modest caps converge fine).
	SolveIterations int

	// RelativeObjective switches host positioning to GNP's squared
	// *relative* error objective instead of the absolute one. The default
	// (absolute) matches the dynamics of the NPS reference implementation
	// the paper attacks — delay-inflated measurements exert absolute
	// pulls, which is why the probe threshold exists. The relative
	// objective is kept as an ablation: it intrinsically discounts
	// far-away lies (see BenchmarkAblationRelativeObjective).
	RelativeObjective bool
}

func (c Config) withDefaults() Config {
	if c.Space.Dims == 0 {
		c.Space = coordspace.Euclidean(8)
	}
	if c.Space.HasHeight {
		panic("nps: height-augmented spaces are not part of NPS")
	}
	if c.Layers == 0 {
		c.Layers = 3
	}
	if c.Layers < 2 {
		panic("nps: need at least 2 layers (landmarks + hosts)")
	}
	if c.NumLandmarks == 0 {
		c.NumLandmarks = 20
	}
	if c.RefLayerFraction == 0 {
		c.RefLayerFraction = 0.20
	}
	if c.RefsPerNode == 0 {
		c.RefsPerNode = 20
	}
	if c.SecurityC == 0 {
		c.SecurityC = 4
	}
	if c.MinFitError == 0 {
		c.MinFitError = 0.01
	}
	if c.SolveIterations == 0 {
		c.SolveIterations = 100 * c.Space.Dims
	}
	return c
}

// ProbeReply is what a positioning node learns from one reference point:
// the reference point's reported coordinate and the RTT the node measured
// (which a malicious reference may inflate by delaying, never shorten).
type ProbeReply struct {
	Coord coordspace.Coord
	RTT   float64 // milliseconds
}

// Tap is the interception hook installed on malicious nodes. When `victim`
// probes the tap's owner during positioning, Respond receives the honest
// reply and returns the forged one. Unlike vivaldi.Tap, replies own their
// coordinates: View.Coord and a tap's answer are copies. That is ~117 k
// allocations per fig21 regeneration and was measured as nothing to win —
// a positioning round is 97 % Solver.Minimize — so the copy stays.
type Tap interface {
	Respond(victim int, honest ProbeReply, view View) ProbeReply
}

// View is the read-only system state available to taps.
type View interface {
	Space() coordspace.Space
	Coord(i int) coordspace.Coord
	Positioned(i int) bool
	TrueRTT(i, j int) float64
	Layer(i int) int
	IsReference(i int) bool
	Round() int
	Size() int
}

// FilterStats counts security-filter decisions, for the paper's
// filtered-malicious ratio figures (fig. 20/22).
type FilterStats struct {
	Total     int // reference points filtered
	Malicious int // of which had a tap installed
}

// Ratio returns Malicious/Total, or 0 when nothing was filtered.
func (f FilterStats) Ratio() float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(f.Malicious) / float64(f.Total)
}

// System is an NPS deployment over a latency matrix. Coordinates live in
// one flat coordspace.Store: solves warm-start from the stored slot and
// write their result back in place, and the engine's measurement pass
// sweeps the flat buffer directly.
type System struct {
	cfg        Config
	m          latency.Substrate
	layerOf    []int
	landmarks  []int
	store      *coordspace.Store
	positioned []bool
	refs       [][]int        // current reference set per node
	banned     []map[int]bool // per-node refs removed by the security filter (nil until first ban)
	taps       []Tap
	rngs       []*rand.Rand
	srcs       []rand.Source // rngs[i]'s source, kept so Clone can copy the stream
	round      int
	stats      FilterStats
	byLayer    [][]int // node ids per layer

	// Steady-state scratch. The probe phase is serial by contract (taps
	// hold shared mutable state), so probeRTTs and the construction-time
	// eligible buffer are System-level; the solve phase is sharded, so
	// every shard owns a solveScratch. All of it exists so a steady
	// positioning round allocates nothing.
	probeRTTs    []float64     // batched Substrate.RTTFrom row over refs[i]
	eligible     []int         // assignRefs candidate scratch (construction/amnesty, serial)
	parSlots     []sampleSlot  // per-node sample buffers for StepParallel
	shardStats   []FilterStats // per-shard filter counters, reduced in shard order
	shardScratch []*solveScratch
}

// sampleSlot is a reusable per-node sample buffer: the usable measurements
// plus a flat arena backing the honest reply coordinates, so a steady
// probe sweep copies reference coordinates without allocating. Forged
// replies may carry tap-owned coordinates instead; both kinds are only
// read within the round.
type sampleSlot struct {
	samples []refSample
	coords  []float64 // len(refs)·Dims arena, row k backs sample k's honest coord
}

// solveScratch is one worker's scratch for the filter + solve half of a
// positioning: fitting errors and their median buffer, the flat anchor
// rows and RTTs handed to the solver, reference-replacement candidates,
// and the host solver itself (which owns the simplex scratch).
// positionWith touches no shared mutable state beyond its stats
// accumulator, so StepParallel keeps one solveScratch per shard —
// ownership never crosses a shard boundary.
type solveScratch struct {
	fits       []float64
	medBuf     []float64
	anchors    []float64 // len(samples) rows of Dims floats
	rtts       []float64
	candidates []int
	host       gnp.HostSolver
}

// serialSharder runs every range in one shard; the serial construction and
// Step entry points use it so they need no engine pool.
type serialSharder struct{}

func (serialSharder) ForEach(n int, fn func(shard, lo, hi int)) { fn(0, 0, n) }
func (serialSharder) NumShards(int) int                         { return 1 }

var _ View = (*System)(nil)

// NewSystem builds an NPS deployment: landmark selection and embedding,
// layer assignment, and initial reference point assignment, all
// deterministic from seed. Nodes are unpositioned until the first Step.
func NewSystem(m latency.Substrate, cfg Config, seed int64) *System {
	return NewSystemSharded(m, cfg, seed, serialSharder{})
}

// NewSystemSharded is NewSystem with construction sharded across sh. The
// per-node RNG stream derivation — pure hashing, one stream per node id —
// fans out across the pool; landmark selection/embedding and reference
// assignment stay serial (selection is a global greedy pass, assignment
// draws from per-node streams whose warm scratch is shared). Every stream
// is derived from (seed, node id) alone, so the result is bit-identical
// for any worker count.
func NewSystemSharded(m latency.Substrate, cfg Config, seed int64, sh Sharder) *System {
	cfg = cfg.withDefaults()
	n := m.Size()
	if cfg.NumLandmarks >= n {
		panic(fmt.Sprintf("nps: %d landmarks but only %d nodes", cfg.NumLandmarks, n))
	}
	s := &System{
		cfg:        cfg,
		m:          m,
		layerOf:    make([]int, n),
		store:      coordspace.NewStore(cfg.Space, n),
		positioned: make([]bool, n),
		refs:       make([][]int, n),
		banned:     make([]map[int]bool, n),
		taps:       make([]Tap, n),
		rngs:       make([]*rand.Rand, n),
		srcs:       make([]rand.Source, n),
		byLayer:    make([][]int, cfg.Layers),
	}
	sh.ForEach(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.srcs[i] = rand.NewSource(randx.DeriveSeed(seed, "nps-node", i))
			s.rngs[i] = rand.New(s.srcs[i])
		}
	})

	// Layer 0: well separated permanent landmarks, embedded once.
	s.landmarks = gnp.SelectLandmarks(m, cfg.NumLandmarks)
	lmCoords := gnp.SolveLandmarks(m, s.landmarks, cfg.Space, randx.DeriveSeed(seed, "nps-landmarks", 0))
	isLandmark := make(map[int]bool, len(s.landmarks))
	for k, id := range s.landmarks {
		isLandmark[id] = true
		s.store.SetCoordAt(id, lmCoords[k])
		s.positioned[id] = true
		s.layerOf[id] = 0
	}
	s.byLayer[0] = append([]int(nil), s.landmarks...)

	// Ordinary nodes: shuffle, then fill intermediate layers with
	// RefLayerFraction of them each; the remainder forms the last layer.
	ordinary := make([]int, 0, n-len(s.landmarks))
	for i := 0; i < n; i++ {
		if !isLandmark[i] {
			ordinary = append(ordinary, i)
		}
	}
	layerRng := randx.NewDerived(seed, "nps-layers", 0)
	layerRng.Shuffle(len(ordinary), func(a, b int) { ordinary[a], ordinary[b] = ordinary[b], ordinary[a] })
	perRefLayer := int(cfg.RefLayerFraction * float64(len(ordinary)))
	if perRefLayer < 1 {
		perRefLayer = 1
	}
	pos := 0
	for layer := 1; layer < cfg.Layers-1; layer++ {
		for k := 0; k < perRefLayer && pos < len(ordinary); k++ {
			id := ordinary[pos]
			pos++
			s.layerOf[id] = layer
			s.byLayer[layer] = append(s.byLayer[layer], id)
		}
	}
	for ; pos < len(ordinary); pos++ {
		id := ordinary[pos]
		s.layerOf[id] = cfg.Layers - 1
		s.byLayer[cfg.Layers-1] = append(s.byLayer[cfg.Layers-1], id)
	}

	for i := 0; i < n; i++ {
		if !isLandmark[i] {
			s.assignRefs(i)
		}
	}
	return s
}

// Clone returns an independent copy of the deployment at its current round
// that continues bit-identically. What rounds mutate is copied
// (coordinates, positioned flags, reference and banned sets, every node's
// stream mid-sequence, round and filter counters); what construction fixed
// is shared (substrate, layers, landmarks); scratch is left for the copy to
// regrow. Taps carry private mutable state this package cannot copy, so
// Clone panics if one is installed.
func (s *System) Clone() *System {
	n := s.Size()
	c := *s
	c.store = coordspace.NewStore(s.cfg.Space, n)
	c.store.CopyFrom(s.store)
	c.positioned = slices.Clone(s.positioned)
	c.refs = make([][]int, n)
	c.banned = make([]map[int]bool, n)
	c.taps = make([]Tap, n)
	c.rngs = make([]*rand.Rand, n)
	c.srcs = make([]rand.Source, n)
	for i := range c.rngs {
		if s.taps[i] != nil {
			panic("nps: Clone with a tap installed")
		}
		c.refs[i] = slices.Clone(s.refs[i])
		c.banned[i] = maps.Clone(s.banned[i])
		c.srcs[i] = randx.CopySource(s.srcs[i])
		c.rngs[i] = rand.New(c.srcs[i])
	}
	c.probeRTTs, c.eligible, c.parSlots, c.shardStats, c.shardScratch = nil, nil, nil, nil, nil
	return &c
}

// assignRefs (re)builds node i's reference set: RefsPerNode members of the
// layer above, excluding banned ones (falling back to banned members only
// if the pool would otherwise be empty). Serial only — the candidate
// scratch is shared — which construction and the amnesty path both are.
func (s *System) assignRefs(i int) {
	pool := s.byLayer[s.layerOf[i]-1]
	eligible := s.eligible[:0]
	for _, r := range pool {
		if !s.banned[i][r] && r != i {
			eligible = append(eligible, r)
		}
	}
	if len(eligible) < s.cfg.Space.Dims+1 {
		// Too few unbanned references to position against: amnesty.
		s.banned[i] = nil
		eligible = eligible[:0]
		for _, r := range pool {
			if r != i {
				eligible = append(eligible, r)
			}
		}
	}
	s.eligible = eligible // retain grown capacity
	k := s.cfg.RefsPerNode
	if k >= len(eligible) {
		s.refs[i] = append([]int(nil), eligible...)
		return
	}
	picked := randx.Sample(s.rngs[i], len(eligible), k)
	set := make([]int, k)
	for idx, e := range picked {
		set[idx] = eligible[e]
	}
	s.refs[i] = set
}

// refsContain reports membership in a reference set (≤ RefsPerNode
// entries; a linear scan beats building a set).
func refsContain(refs []int, x int) bool {
	for _, r := range refs {
		if r == x {
			return true
		}
	}
	return false
}

// replaceRef swaps banned reference r out of node i's set for a fresh
// member of the pool, if one is available. Runs inside the sharded solve
// phase, so its candidate scratch comes from the shard's solveScratch.
func (s *System) replaceRef(i, r int, sc *solveScratch) {
	pool := s.byLayer[s.layerOf[i]-1]
	candidates := sc.candidates[:0]
	for _, x := range pool {
		if x != i && !refsContain(s.refs[i], x) && !s.banned[i][x] {
			candidates = append(candidates, x)
		}
	}
	sc.candidates = candidates // retain grown capacity
	for idx, x := range s.refs[i] {
		if x != r {
			continue
		}
		if len(candidates) > 0 {
			s.refs[i][idx] = candidates[s.rngs[i].Intn(len(candidates))]
		} else {
			// No replacement available: drop it.
			s.refs[i] = append(s.refs[i][:idx], s.refs[i][idx+1:]...)
		}
		return
	}
}

// Probe measures reference r from node i and returns what i observed,
// passing through r's tap if present. Taps can only increase the RTT.
func (s *System) Probe(i, r int) ProbeReply {
	honest := ProbeReply{Coord: s.store.CoordAt(r), RTT: s.m.RTT(i, r)}
	if tap := s.taps[r]; tap != nil {
		forged := tap.Respond(i, honest, s)
		if forged.RTT < honest.RTT {
			forged.RTT = honest.RTT
		}
		return forged
	}
	return honest
}

// refSample is one usable measurement of a reference point: who was
// probed, the coordinate it claimed, and the RTT the prober observed.
type refSample struct {
	ref   int
	coord coordspace.Coord
	rtt   float64
}

// collectSamplesInto probes every current reference of node i into slot's
// reusable buffers and returns the usable measurements: positioned
// references whose reply passed the probe threshold and sanity checks.
// Probing is the only part of a positioning that touches other nodes'
// mutable state (attack taps), so callers run it serially, in a fixed node
// order, and hand the samples to positionWith.
//
// The RTTs are gathered through one batched Substrate.RTTFrom row (the
// backends answer rows element-identical to per-pair RTT calls), and each
// honest reply's coordinate is copied into the slot's flat arena — so a
// steady probe sweep performs no per-probe interface dispatch and no
// allocation. Taps are consulted after the copy, in reference order,
// exactly as the per-probe path did; a tap may return its own forged
// coordinate, which is used as-is.
func (s *System) collectSamplesInto(i int, slot *sampleSlot) []refSample {
	refs := s.refs[i]
	dims := s.cfg.Space.Dims
	if cap(s.probeRTTs) < len(refs) {
		s.probeRTTs = make([]float64, len(refs))
	}
	rtts := s.probeRTTs[:len(refs)]
	s.m.RTTFrom(i, refs, rtts)
	if cap(slot.coords) < len(refs)*dims {
		slot.coords = make([]float64, len(refs)*dims)
	}
	arena := slot.coords[:cap(slot.coords)]
	samples := slot.samples[:0]
	for k, r := range refs {
		if !s.positioned[r] {
			continue
		}
		row := arena[len(samples)*dims : (len(samples)+1)*dims : (len(samples)+1)*dims]
		copy(row, s.store.VecAt(r))
		reply := ProbeReply{Coord: coordspace.Coord{V: row}, RTT: rtts[k]}
		if tap := s.taps[r]; tap != nil {
			forged := tap.Respond(i, reply, s)
			if forged.RTT < reply.RTT {
				forged.RTT = reply.RTT
			}
			reply = forged
		}
		if s.cfg.ProbeThresholdMS > 0 && reply.RTT > s.cfg.ProbeThresholdMS {
			continue // suspicious probe, discarded (§5.4.2)
		}
		if reply.RTT <= 0 || !s.cfg.Space.Compatible(reply.Coord) {
			continue
		}
		samples = append(samples, refSample{r, reply.Coord, reply.RTT})
	}
	slot.samples = samples
	return samples
}

// positionWith applies the security filter and the Simplex Downhill solve
// to already-collected samples. Apart from the stats accumulator and the
// scratch it mutates only node-i state (coords, banned set, reference set,
// RNG stream), so distinct nodes of one layer may run concurrently as long
// as each worker passes its own stats accumulator and solveScratch.
//
// The filter evaluates each reference's fitting error against the node's
// *current* position estimate — the position computed from the previous
// round's references, which is exactly "the position computed based on
// these reference points" once the system iterates (§3.1). Screening
// before the solve is what gives the filter its power and its failure
// mode: a converged node spots a reference whose claimed distance is
// inconsistent with where the node knows it sits, but once enough
// references lie, the median fitting error itself is poisoned and the
// criterion goes blind (the paper's ~40% breaking point, fig. 14).
func (s *System) positionWith(i int, samples []refSample, stats *FilterStats, sc *solveScratch) {
	if len(samples) < s.cfg.Space.Dims/2+2 {
		return // not enough usable references this round
	}

	// Security filter (skipped until the node has a position to check
	// against): fitting error per reference at the current estimate.
	// Every reference exceeding both the absolute trigger and C x the
	// median is *screened out of this round's solve* — a node does not
	// knowingly fit against inconsistent measurements — but only the
	// worst one is permanently eliminated and replaced ("H decides
	// whether to eliminate the reference point with the largest ER",
	// §3.1; the one-elimination rule is what hands colluders their
	// reprieves). The FilterAll ablation eliminates all of them.
	if s.cfg.Security && s.positioned[i] {
		if cap(sc.fits) < len(samples) {
			sc.fits = make([]float64, len(samples))
			sc.medBuf = make([]float64, len(samples))
		}
		fits := sc.fits[:len(samples)]
		worst, worstIdx := -1.0, -1
		// The fitting error reads the node's current estimate straight off
		// the flat store (zero-copy view; FitError only reads it).
		cur := s.store.ViewAt(i)
		for k, sm := range samples {
			fits[k] = gnp.FitError(s.cfg.Space, cur, sm.coord, sm.rtt)
			if fits[k] > worst {
				worst, worstIdx = fits[k], k
			}
		}
		// Exact median via quickselect (bit-identical to the historical
		// sort-a-copy median, without the sort or the copy allocation).
		med := metrics.MedianExactInto(fits, sc.medBuf[:0])
		minFit, bar := s.cfg.MinFitError, s.cfg.SecurityC*med
		if worstIdx >= 0 && worst > minFit && worst > bar {
			if s.cfg.FilterAll {
				for k, sm := range samples {
					if fits[k] > minFit && fits[k] > bar {
						s.eliminate(i, sm.ref, stats, sc)
					}
				}
			} else {
				s.eliminate(i, samples[worstIdx].ref, stats, sc)
			}
			// Screen every flagged reference out of this round's solve.
			kept := samples[:0]
			for k, sm := range samples {
				if !(fits[k] > minFit && fits[k] > bar) {
					kept = append(kept, sm)
				}
			}
			samples = kept
			if len(samples) < s.cfg.Space.Dims/2+2 {
				return
			}
		}
	}

	// Flatten the surviving anchors into the scratch rows and solve with
	// the shard-owned host solver. The solution aliases solver scratch;
	// SetCoordAt copies it into the store.
	dims := s.cfg.Space.Dims
	if cap(sc.anchors) < len(samples)*dims {
		sc.anchors = make([]float64, len(samples)*dims)
	}
	if cap(sc.rtts) < len(samples) {
		sc.rtts = make([]float64, len(samples))
	}
	anchors, rtts := sc.anchors[:len(samples)*dims], sc.rtts[:len(samples)]
	for k, sm := range samples {
		copy(anchors[k*dims:(k+1)*dims], sm.coord.V)
		rtts[k] = sm.rtt
	}
	// Warm-start from the stored slot (the solver copies it) and write the
	// accepted solution back in place.
	pos, _ := sc.host.Position(s.cfg.Space, anchors, rtts, s.cfg.RelativeObjective,
		s.store.ViewAt(i), s.rngs[i], s.cfg.SolveIterations)
	if !pos.IsValid() {
		return
	}
	s.store.SetCoordAt(i, pos)
	s.positioned[i] = true
}

// eliminate permanently bans reference ref for node i and draws a
// replacement. The banned map is created on first use: most nodes never
// ban anyone, and 25k eager maps were a measurable slice of construction.
func (s *System) eliminate(i, ref int, stats *FilterStats, sc *solveScratch) {
	if s.banned[i] == nil {
		s.banned[i] = make(map[int]bool, 4)
	}
	s.banned[i][ref] = true
	stats.Total++
	if s.taps[ref] != nil {
		stats.Malicious++
	}
	s.replaceRef(i, ref, sc)
}

// Step runs one positioning round on the calling goroutine: the inline
// form of StepParallel (one shard), bit-identical to it on any Sharder.
func (s *System) Step() { s.StepParallel(serialSharder{}) }

// Run executes n positioning rounds.
func (s *System) Run(n int) {
	for k := 0; k < n; k++ {
		s.Step()
	}
}

// Accessors (most also satisfy View).

// Space returns the embedding space.
func (s *System) Space() coordspace.Space { return s.cfg.Space }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Size returns the population size including landmarks.
func (s *System) Size() int { return s.store.Len() }

// Round returns the number of completed positioning rounds.
func (s *System) Round() int { return s.round }

// Coord returns a copy of node i's current coordinate.
func (s *System) Coord(i int) coordspace.Coord { return s.store.CoordAt(i) }

// Coords returns copies of all coordinates.
func (s *System) Coords() []coordspace.Coord { return s.store.Coords() }

// Store returns the live flat coordinate store. It is the engine's
// measurement path; treat it as read-only outside this package.
func (s *System) Store() *coordspace.Store { return s.store }

// Positioned reports whether node i has computed a position.
func (s *System) Positioned(i int) bool { return s.positioned[i] }

// TrueRTT returns the underlying matrix RTT.
func (s *System) TrueRTT(i, j int) float64 { return s.m.RTT(i, j) }

// Layer returns node i's layer (0 = landmark).
func (s *System) Layer(i int) int { return s.layerOf[i] }

// IsReference reports whether node i serves as a reference point for a
// lower layer (landmarks included).
func (s *System) IsReference(i int) bool { return s.layerOf[i] < s.cfg.Layers-1 }

// IsLandmark reports whether node i is a layer-0 landmark.
func (s *System) IsLandmark(i int) bool { return s.layerOf[i] == 0 }

// Landmarks returns the landmark node ids (not a copy; do not mutate).
func (s *System) Landmarks() []int { return s.landmarks }

// NodesInLayer returns the node ids of a layer (not a copy; do not mutate).
func (s *System) NodesInLayer(layer int) []int { return s.byLayer[layer] }

// Refs returns node i's current reference set (not a copy; do not mutate).
func (s *System) Refs(i int) []int { return s.refs[i] }

// SetTap installs (or removes, with nil) a probe tap on node i. Landmarks
// are assumed secure and cannot be tapped (§5.4).
func (s *System) SetTap(i int, t Tap) {
	if s.IsLandmark(i) && t != nil {
		panic("nps: landmarks are assumed secure and cannot be malicious")
	}
	s.taps[i] = t
}

// IsMalicious reports whether node i has a tap installed.
func (s *System) IsMalicious(i int) bool { return s.taps[i] != nil }

// Stats returns the security filter counters accumulated so far.
func (s *System) Stats() FilterStats { return s.stats }

// ResetStats clears the filter counters (experiments call this at attack
// injection time).
func (s *System) ResetStats() { s.stats = FilterStats{} }

// Substrate returns the underlying latency substrate.
func (s *System) Substrate() latency.Substrate { return s.m }
