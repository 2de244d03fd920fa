package core

import (
	"repro/internal/coordspace"
	"repro/internal/randx"
	"repro/internal/vivaldi"
)

// VivaldiFrogBoil is the frog-boiling attack (Chan-Tin et al., "The
// Frog-Boiling Attack: Limitations of Secure Network Coordinate Systems",
// NDSS 2009 / TISSEC 2011): instead of one large lie, the attacker tells a
// sequence of small, individually plausible, mutually consistent lies that
// drift its claimed coordinate a little further from the truth on every
// response, inflating the reported RTT by exactly the added distance so
// the story always self-verifies. Each step is far inside any plausibility
// window — which is precisely the point: threshold defenses (RTT windows,
// displacement clamps, coordinate bounds below the drift cap) admit every
// step, yet the accumulated drift marches victims arbitrarily far out.
//
// The drift direction is fixed per attacker (drawn once from its own
// stream) and the honest coordinate is frozen at the first response, so
// the lie sequence is a straight outward march: claimed(t) = frozen +
// drift(t)·u, reported RTT = honest RTT + drift(t), reported error = the
// attacker's honest error estimate (no ej=0.01 tell — staying unremarkable
// is part of the attack).
type VivaldiFrogBoil struct {
	// StepMS is the per-response drift increment in ms (default 100 —
	// small against typical RTTs, invisible to windowed defenses).
	StepMS float64

	// MaxDrift caps the accumulated drift (default 50000 ms, the paper's
	// exile radius, so the end state matches the blunt attacks' scale).
	MaxDrift float64

	drift  float64
	dir    []float64        // fixed unit drift direction
	frozen coordspace.Coord // honest coordinate at the first response (a copy: views expire)
	lie    coordspace.Coord // scratch: the claimed coordinate of the current response
}

// NewVivaldiFrogBoil returns a frog-boiling tap for the given owner node.
func NewVivaldiFrogBoil(owner int, space coordspace.Space, seed int64) *VivaldiFrogBoil {
	rng := randx.NewDerived(seed, "vivaldi-frogboil", owner)
	// A random far point's direction from the origin, reduced to a unit
	// vector: the march direction, fixed for the attack's lifetime.
	far := space.Random(rng, 1000)
	for space.NormOf(far) < 500 {
		far = space.Random(rng, 1000)
	}
	norm := space.NormOf(far)
	dir := make([]float64, space.Dims)
	for i := range dir {
		dir[i] = far.V[i] / norm
	}
	return &VivaldiFrogBoil{
		StepMS:   100,
		MaxDrift: 50000,
		dir:      dir,
	}
}

// Respond implements vivaldi.Tap.
func (a *VivaldiFrogBoil) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	if a.frozen.V == nil {
		// Freeze the honest story at first contact: later responses drift
		// from here, not from wherever the real coordinate wanders.
		a.frozen = honest.Coord.Clone()
		a.lie = a.frozen.Clone()
	}
	if a.drift < a.MaxDrift {
		a.drift += a.StepMS
	}
	for i := range a.lie.V {
		a.lie.V[i] = a.frozen.V[i] + a.drift*a.dir[i]
	}
	// The reported RTT grows by exactly the claimed displacement, so the
	// (coordinate, RTT) pair stays self-consistent at every step.
	return vivaldi.ProbeResponse{
		Coord: a.lie,
		Error: honest.Error,
		RTT:   honest.RTT + a.drift,
	}
}
