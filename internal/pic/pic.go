// Package pic implements Practical Internet Coordinates (Costa et al.,
// ICDCS 2004), the third coordinate system surveyed in §2.2 of the paper:
// fully decentralized GNP-style positioning in which a node picks any set
// of already-positioned hosts as anchors (random, closest, or a hybrid of
// both) and minimizes the squared relative error with Simplex Downhill.
//
// PIC ships the only pre-2006 security mechanism among the surveyed
// systems: a triangle-inequality test that rejects anchors whose measured
// distance is inconsistent with the bounds implied by the other anchors.
// The paper's critique (§2.2) is that real RTTs persistently violate the
// triangle inequality, so the test fires on honest anchors and degrades a
// clean system — this package exists to let the experiments quantify that
// trade-off next to the NPS filter.
package pic

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/coordspace"
	"repro/internal/gnp"
	"repro/internal/latency"
	"repro/internal/randx"
)

// Strategy selects how a node picks its anchors (§2.2: "different
// strategies such as random nodes, closest nodes, and a hybrid of both").
type Strategy int

// Anchor selection strategies.
const (
	StrategyHybrid  Strategy = iota // half closest, half random (PIC's best)
	StrategyRandom                  // uniformly random positioned hosts
	StrategyClosest                 // lowest-RTT positioned hosts
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyHybrid:
		return "hybrid"
	case StrategyRandom:
		return "random"
	case StrategyClosest:
		return "closest"
	}
	return "unknown"
}

// Config parameterises a PIC deployment. Zero values take PIC's defaults.
type Config struct {
	Space    coordspace.Space // default 8-D Euclidean
	Anchors  int              // anchors per positioning (default 16)
	Strategy Strategy         // default hybrid

	// Security enables the triangle-inequality test.
	Security bool

	// Slack is the tolerated relative violation of the triangle bounds
	// before an anchor is rejected (default 0.1). Zero slack would reject
	// nearly everything on a realistic Internet.
	Slack float64

	// SolveIterations caps the Simplex Downhill iterations (default
	// 100 x dims).
	SolveIterations int
}

func (c Config) withDefaults() Config {
	if c.Space.Dims == 0 {
		c.Space = coordspace.Euclidean(8)
	}
	if c.Space.HasHeight {
		panic("pic: height-augmented spaces are not part of PIC")
	}
	if c.Anchors == 0 {
		c.Anchors = 16
	}
	if c.Slack == 0 {
		c.Slack = 0.1
	}
	if c.SolveIterations == 0 {
		c.SolveIterations = 100 * c.Space.Dims
	}
	return c
}

// ProbeReply is what a positioning node learns from one anchor: its
// reported coordinate and the measured RTT (malicious anchors may inflate,
// never shorten).
type ProbeReply struct {
	Coord coordspace.Coord
	RTT   float64 // milliseconds
}

// Tap intercepts an anchor's replies (the attack hook; mirrors nps.Tap,
// including its per-reply coordinate copy, measured there as nothing to
// win).
type Tap interface {
	Respond(victim int, honest ProbeReply, view View) ProbeReply
}

// View is the read-only system state available to taps.
type View interface {
	Space() coordspace.Space
	Coord(i int) coordspace.Coord
	Positioned(i int) bool
	TrueRTT(i, j int) float64
	Round() int
	Size() int
}

// SecurityStats counts triangle-test decisions.
type SecurityStats struct {
	Tested            int // anchor measurements examined
	Rejected          int // anchors rejected by the triangle test
	RejectedMalicious int // of which actually had a tap
}

// FalsePositiveRate returns the share of rejections that hit honest
// anchors.
func (s SecurityStats) FalsePositiveRate() float64 {
	if s.Rejected == 0 {
		return 0
	}
	return float64(s.Rejected-s.RejectedMalicious) / float64(s.Rejected)
}

// System is a PIC deployment over a latency matrix. The first BootstrapN
// nodes (Anchors+1 of them) are embedded directly against each other so
// the decentralized growth has something to start from.
type System struct {
	cfg        Config
	m          latency.Substrate
	coords     []coordspace.Coord
	positioned []bool
	taps       []Tap
	rngs       []*rand.Rand
	round      int
	stats      SecurityStats

	// Positioning scratch: the host solver and the flat anchor rows and
	// RTTs handed to it, reused across every positioning.
	host    gnp.HostSolver
	anchors []float64
	rtts    []float64
}

var _ View = (*System)(nil)

// NewSystem builds a PIC deployment. A small bootstrap clique (the first
// Anchors+1 nodes in a random order) is embedded GNP-style at
// construction; everyone else positions against already-positioned hosts
// during Step.
func NewSystem(m latency.Substrate, cfg Config, seed int64) *System {
	cfg = cfg.withDefaults()
	n := m.Size()
	if n < cfg.Anchors+2 {
		panic("pic: population smaller than anchor set")
	}
	s := &System{
		cfg:        cfg,
		m:          m,
		coords:     make([]coordspace.Coord, n),
		positioned: make([]bool, n),
		taps:       make([]Tap, n),
		rngs:       make([]*rand.Rand, n),
	}
	for i := 0; i < n; i++ {
		s.rngs[i] = randx.NewDerived(seed, "pic-node", i)
		s.coords[i] = cfg.Space.Zero()
	}
	// Bootstrap clique: random nodes embedded against each other.
	order := randx.NewDerived(seed, "pic-bootstrap", 0).Perm(n)
	clique := order[:cfg.Anchors+1]
	cliqueCoords := gnp.SolveLandmarks(m, clique, cfg.Space, randx.DeriveSeed(seed, "pic-clique", 0))
	for k, id := range clique {
		s.coords[id] = cliqueCoords[k]
		s.positioned[id] = true
	}
	return s
}

// Step runs one positioning round: every node (bootstrap clique included,
// so it keeps refining) repositions against anchors chosen by the
// configured strategy.
func (s *System) Step() {
	s.round++
	for i := range s.coords {
		s.positionNode(i)
	}
}

// Run executes n rounds.
func (s *System) Run(n int) {
	for k := 0; k < n; k++ {
		s.Step()
	}
}

func (s *System) positionNode(i int) {
	anchors := s.pickAnchors(i)
	if len(anchors) < s.cfg.Space.Dims/2+2 {
		return
	}
	replies := make([]ProbeReply, 0, len(anchors))
	ids := make([]int, 0, len(anchors))
	for _, a := range anchors {
		reply := s.Probe(i, a)
		if reply.RTT <= 0 || !s.cfg.Space.Compatible(reply.Coord) {
			continue
		}
		replies = append(replies, reply)
		ids = append(ids, a)
	}
	if s.cfg.Security {
		keep := s.triangleTest(replies)
		kr := replies[:0]
		ki := ids[:0]
		for k, ok := range keep {
			s.stats.Tested++
			if !ok {
				s.stats.Rejected++
				if s.taps[ids[k]] != nil {
					s.stats.RejectedMalicious++
				}
				continue
			}
			kr = append(kr, replies[k])
			ki = append(ki, ids[k])
		}
		replies, ids = kr, ki
	}
	if len(replies) < s.cfg.Space.Dims/2+2 {
		return
	}
	s.anchors, s.rtts = s.anchors[:0], s.rtts[:0]
	for _, r := range replies {
		s.anchors = append(s.anchors, r.Coord.V...)
		s.rtts = append(s.rtts, r.RTT)
	}
	// The solution aliases solver scratch; copy it into the node's slot.
	pos, _ := s.host.Position(s.cfg.Space, s.anchors, s.rtts, true, s.coords[i], s.rngs[i], s.cfg.SolveIterations)
	if pos.IsValid() {
		copy(s.coords[i].V, pos.V)
		s.positioned[i] = true
	}
}

// triangleTest implements PIC's security check: for each anchor a, the
// measured distance d(n,a) must lie within the triangle bounds implied by
// every other anchor b:
//
//	|d(n,b) − ||xa−xb||| − slack ≤ d(n,a) ≤ d(n,b) + ||xa−xb|| + slack
//
// where slack is relative to the bound. An anchor violating the bounds
// against a majority of the others is rejected. On a real Internet some
// honest anchors violate these bounds too (persistent TIVs), which is the
// false-positive weakness the paper points out.
func (s *System) triangleTest(replies []ProbeReply) []bool {
	keep := make([]bool, len(replies))
	space := s.cfg.Space
	for a := range replies {
		violations := 0
		for b := range replies {
			if a == b {
				continue
			}
			est := space.Dist(replies[a].Coord, replies[b].Coord)
			lower := math.Abs(replies[b].RTT-est) * (1 - s.cfg.Slack)
			upper := (replies[b].RTT + est) * (1 + s.cfg.Slack)
			if replies[a].RTT < lower || replies[a].RTT > upper {
				violations++
			}
		}
		keep[a] = violations <= (len(replies)-1)/2
	}
	return keep
}

// pickAnchors selects positioned hosts per the strategy.
func (s *System) pickAnchors(i int) []int {
	candidates := make([]int, 0, len(s.coords))
	for j := range s.coords {
		if j != i && s.positioned[j] {
			candidates = append(candidates, j)
		}
	}
	if len(candidates) <= s.cfg.Anchors {
		return candidates
	}
	switch s.cfg.Strategy {
	case StrategyRandom:
		return sampleInts(s.rngs[i], candidates, s.cfg.Anchors)
	case StrategyClosest:
		sort.Slice(candidates, func(a, b int) bool {
			return s.m.RTT(i, candidates[a]) < s.m.RTT(i, candidates[b])
		})
		return candidates[:s.cfg.Anchors]
	default: // StrategyHybrid
		sort.Slice(candidates, func(a, b int) bool {
			return s.m.RTT(i, candidates[a]) < s.m.RTT(i, candidates[b])
		})
		half := s.cfg.Anchors / 2
		picked := append([]int(nil), candidates[:half]...)
		rest := candidates[half:]
		picked = append(picked, sampleInts(s.rngs[i], rest, s.cfg.Anchors-half)...)
		return picked
	}
}

func sampleInts(rng *rand.Rand, pool []int, k int) []int {
	idx := randx.Sample(rng, len(pool), k)
	out := make([]int, k)
	for i, v := range idx {
		out[i] = pool[v]
	}
	return out
}

// Probe measures anchor a from node i, passing through a's tap if any.
// Taps can only increase the RTT.
func (s *System) Probe(i, a int) ProbeReply {
	honest := ProbeReply{Coord: s.coords[a].Clone(), RTT: s.m.RTT(i, a)}
	if tap := s.taps[a]; tap != nil {
		forged := tap.Respond(i, honest, s)
		if forged.RTT < honest.RTT {
			forged.RTT = honest.RTT
		}
		return forged
	}
	return honest
}

// Accessors (also satisfying View).

// Space returns the embedding space.
func (s *System) Space() coordspace.Space { return s.cfg.Space }

// Size returns the population size.
func (s *System) Size() int { return len(s.coords) }

// Round returns the completed positioning rounds.
func (s *System) Round() int { return s.round }

// Coord returns a copy of node i's coordinate.
func (s *System) Coord(i int) coordspace.Coord { return s.coords[i].Clone() }

// Coords returns copies of all coordinates.
func (s *System) Coords() []coordspace.Coord {
	out := make([]coordspace.Coord, len(s.coords))
	for i := range out {
		out[i] = s.coords[i].Clone()
	}
	return out
}

// Positioned reports whether node i has a position.
func (s *System) Positioned(i int) bool { return s.positioned[i] }

// TrueRTT returns the underlying matrix RTT.
func (s *System) TrueRTT(i, j int) float64 { return s.m.RTT(i, j) }

// SetTap installs (or removes, with nil) a probe tap on node i.
func (s *System) SetTap(i int, t Tap) { s.taps[i] = t }

// IsMalicious reports whether node i has a tap.
func (s *System) IsMalicious(i int) bool { return s.taps[i] != nil }

// Stats returns the triangle-test counters.
func (s *System) Stats() SecurityStats { return s.stats }

// ResetStats clears the triangle-test counters.
func (s *System) ResetStats() { s.stats = SecurityStats{} }
