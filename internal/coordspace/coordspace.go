// Package coordspace implements the geometric spaces in which coordinate
// systems embed nodes: n-dimensional Euclidean space, optionally augmented
// with the Vivaldi "height" component modelling access-link delay.
//
// Distances are in milliseconds, matching the latency substrate. The height
// arithmetic follows Dabek et al. (SIGCOMM 2004): for height-augmented
// coordinates, [x,xh] − [y,yh] = [x−y, xh+yh], ‖[x,xh]‖ = ‖x‖ + xh, and
// α[x,xh] = [αx, α·xh]; node heights are clamped to a small positive
// minimum after every displacement.
package coordspace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Coord is a point in a Space: a Euclidean vector plus an optional height.
// Height is meaningful only when the owning Space has HasHeight; it is kept
// zero otherwise.
type Coord struct {
	V []float64
	H float64
}

// Clone returns a deep copy of c.
func (c Coord) Clone() Coord {
	v := make([]float64, len(c.V))
	copy(v, c.V)
	return Coord{V: v, H: c.H}
}

// IsValid reports whether every component is finite.
func (c Coord) IsValid() bool {
	for _, x := range c.V {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return !math.IsNaN(c.H) && !math.IsInf(c.H, 0)
}

// String renders the coordinate compactly for logs.
func (c Coord) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range c.V {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.2f", x)
	}
	if c.H != 0 {
		fmt.Fprintf(&b, ";h=%.2f", c.H)
	}
	b.WriteByte(')')
	return b.String()
}

// Space describes an embedding geometry. Spaces are small value types;
// copy freely.
type Space struct {
	Dims      int     // Euclidean dimensionality
	HasHeight bool    // augment with a height component
	MinHeight float64 // height floor applied after displacement
}

// Euclidean returns a plain d-dimensional Euclidean space.
func Euclidean(d int) Space {
	if d <= 0 {
		panic("coordspace: non-positive dimension")
	}
	return Space{Dims: d}
}

// EuclideanHeight returns a d-dimensional Euclidean space augmented with a
// height component (the Vivaldi "height model").
func EuclideanHeight(d int) Space {
	s := Euclidean(d)
	s.HasHeight = true
	s.MinHeight = 0.1
	return s
}

// Name returns a short label such as "2D", "8D" or "2D+h".
func (s Space) Name() string {
	if s.HasHeight {
		return fmt.Sprintf("%dD+h", s.Dims)
	}
	return fmt.Sprintf("%dD", s.Dims)
}

// Zero returns the origin of the space (height at the floor).
func (s Space) Zero() Coord {
	c := Coord{V: make([]float64, s.Dims)}
	if s.HasHeight {
		c.H = s.MinHeight
	}
	return c
}

// Random returns a coordinate with every Euclidean component uniform in
// [-scale, scale] and, in height spaces, a height uniform in
// (MinHeight, scale]. This is the paper's random-coordinate baseline
// (§5.1, scale 50000).
func (s Space) Random(rng *rand.Rand, scale float64) Coord {
	var c Coord
	s.RandomInto(&c, rng, scale)
	return c
}

// RandomInto is Random written into dst: the same draws in the same order
// (components, then height). dst is reused when its vector has the space's
// dimensionality, so a caller that keeps it between calls allocates once.
func (s Space) RandomInto(dst *Coord, rng *rand.Rand, scale float64) {
	s.size(dst)
	for i := range dst.V {
		dst.V[i] = (rng.Float64()*2 - 1) * scale
	}
	if s.HasHeight {
		dst.H = s.MinHeight + rng.Float64()*math.Max(scale-s.MinHeight, 0)
	}
}

// size replaces a dst of the wrong dimensionality with a fresh coordinate.
func (s Space) size(dst *Coord) {
	if len(dst.V) != s.Dims {
		*dst = Coord{V: make([]float64, s.Dims)}
	}
}

// Dist returns the predicted distance between a and b: the Euclidean norm
// of the vector difference, plus both heights in a height space.
func (s Space) Dist(a, b Coord) float64 {
	sum := 0.0
	for i := 0; i < s.Dims; i++ {
		d := a.V[i] - b.V[i]
		sum += d * d
	}
	d := math.Sqrt(sum)
	if s.HasHeight {
		d += a.H + b.H
	}
	return d
}

// Unit returns the unit vector u(a−b) used by the Vivaldi update, together
// with the distance ‖a−b‖. When a and b coincide, a uniformly random unit
// direction is returned (the standard tie-break, also used by serf), which
// is why an RNG is required.
func (s Space) Unit(a, b Coord, rng *rand.Rand) (Coord, float64) {
	diff := Coord{V: make([]float64, s.Dims)}
	sum := 0.0
	for i := 0; i < s.Dims; i++ {
		d := a.V[i] - b.V[i]
		diff.V[i] = d
		sum += d * d
	}
	norm := math.Sqrt(sum)
	if s.HasHeight {
		diff.H = a.H + b.H
		norm += diff.H
	}
	if norm <= 1e-9 {
		// Coincident points: pick a random direction of unit length.
		return s.randomUnit(rng), 0
	}
	inv := 1 / norm
	for i := range diff.V {
		diff.V[i] *= inv
	}
	diff.H *= inv
	dist := norm
	return diff, dist
}

func (s Space) randomUnit(rng *rand.Rand) Coord {
	buf := make([]float64, s.Dims+1)
	s.randomUnitInto(buf, rng)
	return Coord{V: buf[:s.Dims:s.Dims], H: buf[s.Dims]}
}

// Displace returns a + f·dir, clamping the height to the space's floor.
// dir is typically a unit vector from Unit and f the signed displacement
// magnitude of a Vivaldi step.
func (s Space) Displace(a, dir Coord, f float64) Coord {
	c := Coord{V: make([]float64, s.Dims)}
	for i := 0; i < s.Dims; i++ {
		c.V[i] = a.V[i] + f*dir.V[i]
	}
	if s.HasHeight {
		c.H = a.H + f*dir.H
		if c.H < s.MinHeight {
			c.H = s.MinHeight
		}
	}
	return c
}

// Midpoint returns the coordinate halfway between a and b (heights
// averaged). Used by attack strategies that need a point "between" places.
func (s Space) Midpoint(a, b Coord) Coord {
	c := Coord{V: make([]float64, s.Dims)}
	for i := 0; i < s.Dims; i++ {
		c.V[i] = (a.V[i] + b.V[i]) / 2
	}
	if s.HasHeight {
		c.H = (a.H + b.H) / 2
		if c.H < s.MinHeight {
			c.H = s.MinHeight
		}
	}
	return c
}

// Toward returns the point at parameter t along the segment from a to b
// (t=0 yields a, t=1 yields b; t may exceed [0,1] to extrapolate).
func (s Space) Toward(a, b Coord, t float64) Coord {
	var c Coord
	s.TowardInto(&c, a, b, t)
	return c
}

// TowardInto is Toward written into dst, sized like RandomInto's. dst may
// alias a or b: every component is read before it is written.
func (s Space) TowardInto(dst *Coord, a, b Coord, t float64) {
	s.size(dst)
	for i := 0; i < s.Dims; i++ {
		dst.V[i] = a.V[i] + t*(b.V[i]-a.V[i])
	}
	if s.HasHeight {
		dst.H = a.H + t*(b.H-a.H)
		if dst.H < s.MinHeight {
			dst.H = s.MinHeight
		}
	}
}

// Opposite returns the reflection of b through a: the point at distance
// ‖a−b‖ from a on the far side from b. Attackers use it to fabricate a
// position that pushes a victim toward a chosen target.
func (s Space) Opposite(a, b Coord) Coord {
	return s.Toward(b, a, 2)
}

// NormOf returns the distance of c from the origin: Dist(c, Zero()), floor
// height of the origin included, without materialising the origin.
func (s Space) NormOf(c Coord) float64 {
	sum := 0.0
	for i := 0; i < s.Dims; i++ {
		sum += c.V[i] * c.V[i]
	}
	d := math.Sqrt(sum)
	if s.HasHeight {
		d += c.H + s.MinHeight
	}
	return d
}

// Compatible reports whether c has the right shape for the space.
func (s Space) Compatible(c Coord) bool {
	return len(c.V) == s.Dims && c.IsValid()
}
