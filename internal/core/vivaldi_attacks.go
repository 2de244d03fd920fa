package core

import (
	"math/rand"

	"repro/internal/coordspace"
	"repro/internal/randx"
	"repro/internal/vivaldi"
)

// VivaldiDisorder is the §5.3.1 disorder attack: when solicited, the
// malicious node reports a freshly random coordinate with a very low error
// estimate (0.01) and delays the measurement probe by a random value in
// [MinDelay, MaxDelay] ms. No lie consistency is needed: the low reported
// error makes the victim distrust itself and take a large adaptive
// timestep toward garbage.
type VivaldiDisorder struct {
	// CoordScale is the radius of the random coordinate lie. It defaults
	// to 50000 ms, the same interval the paper's random-coordinate
	// baseline draws from (§5.1) — which is what lets a majority of
	// disorder attackers drive honest nodes to worse-than-random accuracy.
	CoordScale float64
	LowError   float64 // reported error estimate (default 0.01)
	MinDelay   float64 // ms (default 100)
	MaxDelay   float64 // ms (default 1000)
	rng        *rand.Rand
	lie        coordspace.Coord // scratch: the coordinate of the current response
}

// NewVivaldiDisorder returns a disorder tap for the given owner node, with
// the paper's parameters.
func NewVivaldiDisorder(owner int, seed int64) *VivaldiDisorder {
	return &VivaldiDisorder{
		CoordScale: 50000,
		LowError:   0.01,
		MinDelay:   100,
		MaxDelay:   1000,
		rng:        randx.NewDerived(seed, "vivaldi-disorder", owner),
	}
}

// Respond implements vivaldi.Tap.
func (a *VivaldiDisorder) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	view.Space().RandomInto(&a.lie, a.rng, a.CoordScale)
	return vivaldi.ProbeResponse{
		Coord: a.lie,
		Error: a.LowError,
		RTT:   honest.RTT + randx.Uniform(a.rng, a.MinDelay, a.MaxDelay),
	}
}

// VivaldiRepulsion is the §5.3.2 repulsion attack. The attacker fixes a
// coordinate Xtarget far from the origin where it wants to push victims.
// Knowing a victim's current position Xc (coordinates are public: anyone
// who probes learns them), it reports the mirror point 2·Xc − Xtarget and
// a measured RTT of d/δ + d (d = ‖Xtarget−Xc‖, δ the adaptive-timestep
// estimate), so the victim's own update rule lands it on Xtarget. Xtarget
// being far away makes the needed RTT large, which keeps the lie
// consistent with "delay only" physics.
type VivaldiRepulsion struct {
	Target        coordspace.Coord // Xtarget, fixed per attacker
	LowError      float64          // reported error estimate (default 0.01)
	DeltaEstimate float64          // attacker's estimate of δ (default Cc = 0.25)
	Victims       map[int]bool     // nil = attack every prober (fig 5); else only members (fig 7)
	lie           coordspace.Coord // scratch: the mirror point of the current response
}

// NewVivaldiRepulsion returns a repulsion tap whose Xtarget is a random
// coordinate at distance scale from the origin (paper: "far away from the
// origin"). victims may be nil to attack everyone.
func NewVivaldiRepulsion(owner int, space coordspace.Space, scale float64, victims map[int]bool, seed int64) *VivaldiRepulsion {
	rng := randx.NewDerived(seed, "vivaldi-repulsion", owner)
	target := space.Random(rng, scale)
	// Ensure the target really is far out: re-draw the rare small samples.
	for space.NormOf(target) < scale/2 {
		target = space.Random(rng, scale)
	}
	return &VivaldiRepulsion{
		Target:        target,
		LowError:      0.01,
		DeltaEstimate: 0.25,
		Victims:       victims,
	}
}

// Respond implements vivaldi.Tap.
func (a *VivaldiRepulsion) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	if a.Victims != nil && !a.Victims[prober] {
		return honest
	}
	return repelToward(&a.lie, view, prober, a.Target, a.DeltaEstimate, a.LowError, honest)
}

// repelToward builds the forged response that makes `prober` move onto
// dest under its own Vivaldi update rule (see VivaldiRepulsion), the
// claimed coordinate written into lie, the calling tap's scratch.
func repelToward(lie *coordspace.Coord, view vivaldi.View, prober int, dest coordspace.Coord, delta, lowErr float64, honest vivaldi.ProbeResponse) vivaldi.ProbeResponse {
	space := view.Space()
	current := view.Coord(prober)
	d := space.Dist(dest, current)
	if d < 1e-9 {
		// Victim already sits on the destination; keep it there with a
		// perfectly consistent "confirmation" lie.
		return vivaldi.ProbeResponse{Coord: dest, Error: lowErr, RTT: honest.RTT}
	}
	// Mirror of the destination through the victim: moving *away* from the
	// claimed coordinate is moving *toward* the destination.
	space.TowardInto(lie, dest, current, 2)
	needed := d/delta + d
	rtt := honest.RTT
	if needed > rtt {
		rtt = needed // delay the probe up to the needed RTT
	}
	return vivaldi.ProbeResponse{Coord: *lie, Error: lowErr, RTT: rtt}
}

// Conspiracy is the shared state of a colluding Vivaldi attack (§5.3.3):
// every member agrees on the designated target node, on the per-victim
// destination coordinates (strategy 1) and on the pretend cluster
// (strategy 2). Determinism and consistency across members is the whole
// point: each victim hears the same story from every attacker.
type Conspiracy struct {
	TargetNode int // the node the attack is about

	// Strategy 1: push every honest node to a fixed distance from the
	// target, radially outward.
	PushRadius float64

	// Strategy 2: the remote area where the attackers pretend to live.
	ClusterCenter coordspace.Coord
	ClusterRadius float64

	dests map[int]coordspace.Coord // agreed per-victim destinations
	seed  int64
}

// NewConspiracy creates the shared state for a colluding isolation attack
// against targetNode. pushRadius is the agreed exile distance for
// strategy 1 (paper: victims end far from the target, so the default is
// 50× a typical coordinate norm). The pretend cluster for strategy 2 is
// placed at clusterNorm from the origin.
func NewConspiracy(targetNode int, space coordspace.Space, pushRadius, clusterNorm float64, seed int64) *Conspiracy {
	rng := randx.NewDerived(seed, "conspiracy", targetNode)
	center := space.Random(rng, clusterNorm)
	for space.NormOf(center) < clusterNorm/2 {
		center = space.Random(rng, clusterNorm)
	}
	return &Conspiracy{
		TargetNode:    targetNode,
		PushRadius:    pushRadius,
		ClusterCenter: center,
		ClusterRadius: clusterNorm / 50,
		dests:         make(map[int]coordspace.Coord),
		seed:          seed,
	}
}

// DestinationFor returns the agreed destination for a victim under
// strategy 1: the point at PushRadius from the target's position, radially
// through the victim's position at the time the destination was first
// agreed. All colluders share the same answer for the same victim.
func (c *Conspiracy) DestinationFor(victim int, view vivaldi.View) coordspace.Coord {
	if dest, ok := c.dests[victim]; ok {
		return dest
	}
	space := view.Space()
	tpos := view.Coord(c.TargetNode)
	vpos := view.Coord(victim)
	rng := randx.NewDerived(c.seed, "conspiracy-dest", victim)
	u, dist := space.Unit(vpos, tpos, rng)
	_ = dist
	dest := space.Displace(tpos, u, c.PushRadius)
	c.dests[victim] = dest
	return dest
}

// ClusterSlot returns the fixed pretend position of a colluder inside the
// remote cluster.
func (c *Conspiracy) ClusterSlot(member int, space coordspace.Space) coordspace.Coord {
	rng := randx.NewDerived(c.seed, "conspiracy-slot", member)
	offset := space.Random(rng, c.ClusterRadius)
	out := c.ClusterCenter.Clone()
	for i := range out.V {
		out.V[i] += offset.V[i]
	}
	return out
}

// LureDestination returns the agreed point inside the cluster where the
// victim (strategy 2) is to be convinced it lives.
func (c *Conspiracy) LureDestination(space coordspace.Space) coordspace.Coord {
	if dest, ok := c.dests[c.TargetNode]; ok {
		return dest
	}
	rng := randx.NewDerived(c.seed, "conspiracy-lure", c.TargetNode)
	offset := space.Random(rng, c.ClusterRadius)
	dest := c.ClusterCenter.Clone()
	for i := range dest.V {
		dest.V[i] += offset.V[i]
	}
	c.dests[c.TargetNode] = dest
	return dest
}

// VivaldiColludeRepel is strategy 1 of the colluding isolation attack
// (§5.3.3): every attacker consistently pushes every honest node (except
// the designated target) to its agreed exile destination, isolating the
// target by moving the rest of the world away from it.
type VivaldiColludeRepel struct {
	Owner         int
	C             *Conspiracy
	LowError      float64
	DeltaEstimate float64
	lie           coordspace.Coord // scratch: the mirror point of the current response
}

// NewVivaldiColludeRepel returns a strategy-1 tap for owner. It takes no
// seed: what the tap says is agreed by the conspiracy, not drawn.
func NewVivaldiColludeRepel(owner int, c *Conspiracy) *VivaldiColludeRepel {
	return &VivaldiColludeRepel{
		Owner:         owner,
		C:             c,
		LowError:      0.01,
		DeltaEstimate: 0.25,
	}
}

// Respond implements vivaldi.Tap.
func (a *VivaldiColludeRepel) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	if prober == a.C.TargetNode {
		// The target itself is left alone: the world moves, not it.
		return honest
	}
	dest := a.C.DestinationFor(prober, view)
	return repelToward(&a.lie, view, prober, dest, a.DeltaEstimate, a.LowError, honest)
}

// VivaldiColludeLure is strategy 2 of the colluding isolation attack
// (§5.3.3): the attackers pretend to be clustered in a remote part of the
// space and convince the designated target that its own coordinate lies
// within that cluster. Non-target probers are answered with the pretend
// cluster position, consistently delayed.
type VivaldiColludeLure struct {
	Owner         int
	C             *Conspiracy
	LowError      float64
	DeltaEstimate float64
	slot          coordspace.Coord // pretend position, fixed per member
	lie           coordspace.Coord // scratch: the mirror point told to the target
}

// NewVivaldiColludeLure returns a strategy-2 tap for owner. It takes no
// seed: its pretend slot comes from the conspiracy's own stream.
func NewVivaldiColludeLure(owner int, c *Conspiracy, space coordspace.Space) *VivaldiColludeLure {
	return &VivaldiColludeLure{
		Owner:         owner,
		C:             c,
		LowError:      0.01,
		DeltaEstimate: 0.25,
		slot:          c.ClusterSlot(owner, space),
	}
}

// Respond implements vivaldi.Tap.
func (a *VivaldiColludeLure) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	space := view.Space()
	if prober == a.C.TargetNode {
		dest := a.C.LureDestination(space)
		return repelToward(&a.lie, view, prober, dest, a.DeltaEstimate, a.LowError, honest)
	}
	// Everyone else: claim to live at the pretend cluster slot, with an
	// RTT consistent with that story (delay up to the claimed distance).
	claimedDist := space.Dist(view.Coord(prober), a.slot)
	rtt := honest.RTT
	if claimedDist > rtt {
		rtt = claimedDist
	}
	return vivaldi.ProbeResponse{Coord: a.slot, Error: a.LowError, RTT: rtt}
}
