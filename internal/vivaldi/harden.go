package vivaldi

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/coordspace"
	"repro/internal/metrics"
)

// Hardening collects the production Vivaldi refinements that serf ships
// (hashicorp/serf's coordinate package), as composable, individually
// toggleable options. The zero value disables every refinement, and a
// system built with it is bit-identical — same coordinates, same error
// estimates, same RNG stream consumption — to one built before these
// options existed; the equivalence suite in internal/engine pins that.
//
// The knobs split into attack mitigations and accuracy tweaks:
//
//   - LatencyWindow (mitigation): per-spring median filter over the last
//     W RTT samples. A single delayed probe (the disorder and repulsion
//     attacks' RTT-inflation half) moves the median only after the
//     attacker has sustained the lie for W/2 samples on that spring.
//   - GravityRho (mitigation): a pull toward the origin with force
//     (‖x‖/ρ)², negligible at honest coordinate norms and overwhelming at
//     the 50 000 ms exile radius the paper's attacks push victims to.
//   - NeighborDecayTicks (mitigation/hygiene): expire a spring's filter
//     window when the spring has been silent that long, so samples from a
//     node's previous incarnation (churn) cannot linger in the median.
//   - AdjustmentWindow (accuracy tweak): a rolling mean of the last W
//     RTT−distance residuals, applied to distance *estimates* only (never
//     to the update rule), absorbing the access-link latency the
//     Euclidean part cannot express.
//
// The height vector — serf's other non-Euclidean refinement — already
// exists as the embedding geometry (coordspace.EuclideanHeight, selected
// per run with engine.RunSpec.Height), so it is a Space choice here, not
// a Hardening field.
//
// Hardening is a plain comparable value: engine.RunSpec embeds it and
// dedupes runs by the full spec.
type Hardening struct {
	// LatencyWindow is the per-spring median filter width in samples
	// (serf default 8); 0 disables the filter. Capped at MaxWindow.
	LatencyWindow int

	// AdjustmentWindow is the residual window width for the distance
	// adjustment term (serf default 20); 0 disables it. Capped at
	// MaxWindow. The window starts zero-filled, serf-style: early
	// adjustments are damped by the zeros still in the ring.
	AdjustmentWindow int

	// GravityRho is the distance at which the gravity pull toward the
	// origin reaches 1 ms per applied sample (serf default 150, in
	// seconds there; milliseconds here); 0 disables gravity.
	GravityRho float64

	// NeighborDecayTicks expires a spring's latency-filter window after
	// that many ticks without a sample on it; 0 keeps windows forever.
	// It only acts on state the latency filter holds, so it is a no-op
	// without LatencyWindow.
	NeighborDecayTicks int
}

// MaxWindow bounds the filter and adjustment windows: the per-spring ring
// bookkeeping is uint8-indexed and the median scratch is sized at build
// time.
const MaxWindow = 64

// Enabled reports whether any refinement is on.
func (h Hardening) Enabled() bool { return h != Hardening{} }

// Validate rejects out-of-range options (negative windows, windows beyond
// MaxWindow, negative gravity or decay).
func (h Hardening) Validate() error {
	if h.LatencyWindow < 0 || h.LatencyWindow > MaxWindow {
		return fmt.Errorf("vivaldi: LatencyWindow %d out of range [0, %d]", h.LatencyWindow, MaxWindow)
	}
	if h.AdjustmentWindow < 0 || h.AdjustmentWindow > MaxWindow {
		return fmt.Errorf("vivaldi: AdjustmentWindow %d out of range [0, %d]", h.AdjustmentWindow, MaxWindow)
	}
	if h.GravityRho < 0 || math.IsNaN(h.GravityRho) {
		return fmt.Errorf("vivaldi: GravityRho %g must be >= 0", h.GravityRho)
	}
	if h.NeighborDecayTicks < 0 {
		return fmt.Errorf("vivaldi: NeighborDecayTicks %d must be >= 0", h.NeighborDecayTicks)
	}
	return nil
}

// String renders the enabled options compactly ("filter=5 gravity=500");
// "off" when everything is zero. Used by run banners and vna-sim -list.
func (h Hardening) String() string {
	if !h.Enabled() {
		return "off"
	}
	out := ""
	app := func(s string) {
		if out != "" {
			out += " "
		}
		out += s
	}
	if h.LatencyWindow > 0 {
		app(fmt.Sprintf("filter=%d", h.LatencyWindow))
	}
	if h.AdjustmentWindow > 0 {
		app(fmt.Sprintf("adjust=%d", h.AdjustmentWindow))
	}
	if h.GravityRho > 0 {
		app(fmt.Sprintf("gravity=%g", h.GravityRho))
	}
	if h.NeighborDecayTicks > 0 {
		app(fmt.Sprintf("decay=%d", h.NeighborDecayTicks))
	}
	return out
}

// hardenState is the population-level hardening state, laid out flat so
// the steady sharded tick stays allocation-free and every element is
// owned by exactly one (node, spring): shards touch disjoint node ranges,
// so phases 1 and 4 of StepParallel remain race-free with hardening on.
type hardenState struct {
	opts Hardening

	// Per-spring latency-filter rings: spring k of node i occupies
	// lfSamples[(springBase[i]+k)*W : +W], with its fill count, write
	// cursor and last-sample tick alongside. The rings hold raw measured
	// RTTs; the median over the filled part replaces the sample's RTT.
	springBase []int
	lfSamples  []float64
	lfCount    []uint8
	lfPos      []uint8
	lfTick     []int32

	// Per-node median scratch (MedianExactInto copies the window here, so
	// the ring is never reordered).
	medBuf []float64

	// Per-node adjustment rings (zero-initialized, serf-style: the sum
	// always runs over the full window) and the current adjustment term.
	adjSamples []float64
	adjPos     []int32
	adj        []float64

	// origin is the space's origin coordinate, cached so the gravity pull
	// reuses the store's unit-vector kernel without a per-tick Coord
	// allocation. Its height equals the space's floor, which makes the
	// kernel's returned distance identical to Store.NormAt.
	origin coordspace.Coord
}

// newHardenState sizes the flat hardening state for a population with the
// given spring sets. Only the state the enabled options need is
// allocated.
func newHardenState(h Hardening, space coordspace.Space, neighbors [][]int) *hardenState {
	n := len(neighbors)
	hs := &hardenState{opts: h}
	if h.LatencyWindow > 0 {
		hs.springBase = make([]int, n)
		total := 0
		for i, nbrs := range neighbors {
			hs.springBase[i] = total
			total += len(nbrs)
		}
		hs.lfSamples = make([]float64, total*h.LatencyWindow)
		hs.lfCount = make([]uint8, total)
		hs.lfPos = make([]uint8, total)
		hs.lfTick = make([]int32, total)
		hs.medBuf = make([]float64, n*h.LatencyWindow)
	}
	if h.AdjustmentWindow > 0 {
		hs.adjSamples = make([]float64, n*h.AdjustmentWindow)
		hs.adjPos = make([]int32, n)
		hs.adj = make([]float64, n)
	}
	if h.GravityRho > 0 {
		hs.origin = coordspace.Coord{V: make([]float64, space.Dims), H: space.MinHeight}
	}
	return hs
}

// clone copies the rings and adjustment terms, shares what construction
// fixed (springBase, origin) and gives the copy its own median scratch —
// two populations stepping on different goroutines must not meet there.
func (hs *hardenState) clone() *hardenState {
	c := *hs
	c.lfSamples = slices.Clone(hs.lfSamples)
	c.lfCount = slices.Clone(hs.lfCount)
	c.lfPos = slices.Clone(hs.lfPos)
	c.lfTick = slices.Clone(hs.lfTick)
	c.medBuf = make([]float64, len(hs.medBuf))
	c.adjSamples = slices.Clone(hs.adjSamples)
	c.adjPos = slices.Clone(hs.adjPos)
	c.adj = slices.Clone(hs.adj)
	return &c
}

// filterRTT pushes a measured RTT into node i's ring for spring k and
// returns the median of the filled window — the filtered RTT the update
// pipeline uses in its place. tick drives the decay rule: a spring silent
// for more than NeighborDecayTicks restarts its window from this sample.
func (hs *hardenState) filterRTT(i, k, tick int, rtt float64) float64 {
	w := hs.opts.LatencyWindow
	s := hs.springBase[i] + k
	ring := hs.lfSamples[s*w : (s+1)*w]
	if d := hs.opts.NeighborDecayTicks; d > 0 && int(hs.lfTick[s])+d < tick {
		hs.lfCount[s], hs.lfPos[s] = 0, 0
	}
	hs.lfTick[s] = int32(tick)
	ring[hs.lfPos[s]] = rtt
	hs.lfPos[s] = (hs.lfPos[s] + 1) % uint8(w)
	if int(hs.lfCount[s]) < w {
		hs.lfCount[s]++
	}
	// The scratch is capacity-capped to node i's region: MedianExactInto
	// appends into it, and spilling past the cap would race with the
	// neighbouring node's shard.
	return metrics.MedianExactInto(ring[:hs.lfCount[s]], hs.medBuf[i*w:i*w:(i+1)*w])
}

// resetNode clears node i's hardening state — the churn path: a fresh
// join must not inherit its predecessor's filter windows or adjustment.
func (hs *hardenState) resetNode(i, springs int) {
	if w := hs.opts.LatencyWindow; w > 0 {
		base := hs.springBase[i]
		for s := base; s < base+springs; s++ {
			hs.lfCount[s], hs.lfPos[s], hs.lfTick[s] = 0, 0, 0
		}
		clear(hs.lfSamples[base*w : (base+springs)*w])
	}
	if aw := hs.opts.AdjustmentWindow; aw > 0 {
		clear(hs.adjSamples[i*aw : (i+1)*aw])
		hs.adjPos[i] = 0
		hs.adj[i] = 0
	}
}

// updateAdjustment records the residual of an applied sample — measured
// RTT minus the post-update estimated distance — and refreshes node i's
// adjustment term: sum of the window over twice its width (serf's rule;
// the half accounts for the term being added at both endpoints of an
// estimate).
func (hs *hardenState) updateAdjustment(st *coordspace.Store, i int, resp ProbeResponse) {
	aw := hs.opts.AdjustmentWindow
	ring := hs.adjSamples[i*aw : (i+1)*aw]
	ring[hs.adjPos[i]] = resp.RTT - st.DistToCoord(i, resp.Coord)
	hs.adjPos[i] = (hs.adjPos[i] + 1) % int32(aw)
	sum := 0.0
	for _, r := range ring {
		sum += r
	}
	hs.adj[i] = sum / float64(2*aw)
}

// gravityForceCap bounds a single gravity step to this fraction of the
// node's distance from the origin, so an exiled node is drawn back over
// several ticks instead of overshooting through the origin.
const gravityForceCap = 0.5

// applyGravity pulls node i toward the origin by (‖x‖/ρ)² ms — serf's
// gravity rule. dir is the node's stride-sized scratch; no RNG is
// consumed (the pull is skipped at the origin), so enabling gravity
// leaves every per-node stream exactly where it would otherwise be.
func (hs *hardenState) applyGravity(st *coordspace.Store, i int, dir []float64) {
	if st.NormAt(i) <= 1e-9 {
		return
	}
	// origin.H equals the space's floor, so dist == Store.NormAt(i) and
	// the coincident branch (the only RNG consumer) is unreachable here.
	dist := st.UnitToCoord(i, hs.origin, dir, nil)
	force := dist / hs.opts.GravityRho
	force *= force
	if force > dist*gravityForceCap {
		force = dist * gravityForceCap
	}
	st.DisplaceAt(i, dir, -force)
}

// nodeHarden is the single-host hardening state behind Node.UpdateFrom.
// Unlike the population's flat hardenState, a live host does not know its
// peer set up front, so latency-filter rings live in a map keyed by peer
// id (the daemon keys by source host index) and are allocated on first
// contact — steady state, with the peer set stable, touches no new rings
// and allocates nothing.
type nodeHarden struct {
	opts   Hardening
	rings  map[int]*peerRing
	medBuf []float64

	adjSamples []float64
	adjPos     int
	adj        float64

	origin coordspace.Coord

	// clock counts filtered samples. A Node has no population tick, but a
	// live host applies about one sample per probe interval, so the
	// applied-sample count is the natural decay clock: a peer silent for
	// NeighborDecayTicks samples restarts its window — the same hygiene
	// rule the population applies in ticks.
	clock int
}

// peerRing is one peer's latency-filter window on a live host.
type peerRing struct {
	samples    []float64
	count, pos int
	last       int // nodeHarden.clock at the last sample
}

// newNodeHarden sizes single-host hardening state; nil when h is all off.
func newNodeHarden(h Hardening, space coordspace.Space) *nodeHarden {
	if !h.Enabled() {
		return nil
	}
	nh := &nodeHarden{opts: h}
	if h.LatencyWindow > 0 {
		nh.rings = make(map[int]*peerRing)
		nh.medBuf = make([]float64, 0, h.LatencyWindow)
	}
	if h.AdjustmentWindow > 0 {
		nh.adjSamples = make([]float64, h.AdjustmentWindow)
	}
	if h.GravityRho > 0 {
		nh.origin = coordspace.Coord{V: make([]float64, space.Dims), H: space.MinHeight}
	}
	return nh
}

// filterRTT is the single-host twin of hardenState.filterRTT: push the
// measured RTT into peer's ring (allocating it on first contact) and
// return the median of the filled window.
func (nh *nodeHarden) filterRTT(peer int, rtt float64) float64 {
	w := nh.opts.LatencyWindow
	nh.clock++
	r := nh.rings[peer]
	if r == nil {
		r = &peerRing{samples: make([]float64, w)}
		nh.rings[peer] = r
	}
	if d := nh.opts.NeighborDecayTicks; d > 0 && r.last+d < nh.clock {
		r.count, r.pos = 0, 0
	}
	r.last = nh.clock
	r.samples[r.pos] = rtt
	r.pos = (r.pos + 1) % w
	if r.count < w {
		r.count++
	}
	return metrics.MedianExactInto(r.samples[:r.count], nh.medBuf)
}

// updateAdjustment mirrors hardenState.updateAdjustment for slot 0 of the
// node's one-slot store.
func (nh *nodeHarden) updateAdjustment(st *coordspace.Store, resp ProbeResponse) {
	aw := nh.opts.AdjustmentWindow
	nh.adjSamples[nh.adjPos] = resp.RTT - st.DistToCoord(0, resp.Coord)
	nh.adjPos = (nh.adjPos + 1) % aw
	sum := 0.0
	for _, r := range nh.adjSamples {
		sum += r
	}
	nh.adj = sum / float64(2*aw)
}

// applyGravity mirrors hardenState.applyGravity for slot 0; same
// zero-RNG contract.
func (nh *nodeHarden) applyGravity(st *coordspace.Store, dir []float64) {
	if st.NormAt(0) <= 1e-9 {
		return
	}
	dist := st.UnitToCoord(0, nh.origin, dir, nil)
	force := dist / nh.opts.GravityRho
	force *= force
	if force > dist*gravityForceCap {
		force = dist * gravityForceCap
	}
	st.DisplaceAt(0, dir, -force)
}

// reset clears all hardening state — the churn path (Node.Reset).
func (nh *nodeHarden) reset() {
	if nh.opts.LatencyWindow > 0 {
		clear(nh.rings)
		nh.clock = 0
	}
	if nh.opts.AdjustmentWindow > 0 {
		clear(nh.adjSamples)
		nh.adjPos = 0
		nh.adj = 0
	}
}
