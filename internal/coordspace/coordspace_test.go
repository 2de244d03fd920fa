package coordspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestEuclideanDist(t *testing.T) {
	s := Euclidean(2)
	a := Coord{V: []float64{0, 0}}
	b := Coord{V: []float64{3, 4}}
	if d := s.Dist(a, b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("dist %v, want 5", d)
	}
}

func TestHeightDist(t *testing.T) {
	s := EuclideanHeight(2)
	a := Coord{V: []float64{0, 0}, H: 10}
	b := Coord{V: []float64{3, 4}, H: 20}
	if d := s.Dist(a, b); math.Abs(d-35) > 1e-12 {
		t.Fatalf("height dist %v, want 35", d)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	for _, s := range []Space{Euclidean(3), EuclideanHeight(2)} {
		rng := randx.New(1)
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a := s.Random(r, 100)
			b := s.Random(r, 100)
			return math.Abs(s.Dist(a, b)-s.Dist(b, a)) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{Rand: rng}); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestDistTriangleInequalityProperty(t *testing.T) {
	// Both plain Euclidean and the height model are metric spaces.
	for _, s := range []Space{Euclidean(2), Euclidean(5), EuclideanHeight(3)} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b, c := s.Random(r, 50), s.Random(r, 50), s.Random(r, 50)
			return s.Dist(a, c) <= s.Dist(a, b)+s.Dist(b, c)+1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestDistNonNegativeProperty(t *testing.T) {
	s := EuclideanHeight(4)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := s.Random(r, 1000), s.Random(r, 1000)
		return s.Dist(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnitHasUnitNorm(t *testing.T) {
	for _, s := range []Space{Euclidean(2), Euclidean(8), EuclideanHeight(2)} {
		r := randx.New(7)
		for i := 0; i < 200; i++ {
			a, b := s.Random(r, 100), s.Random(r, 100)
			u, dist := s.Unit(a, b, r)
			// Norm of the unit vector under the space's own norm.
			sum := 0.0
			for _, x := range u.V {
				sum += x * x
			}
			norm := math.Sqrt(sum)
			if s.HasHeight {
				norm += u.H
			}
			if math.Abs(norm-1) > 1e-9 {
				t.Fatalf("%s: unit norm %v", s.Name(), norm)
			}
			if math.Abs(dist-s.Dist(a, b)) > 1e-9 {
				t.Fatalf("%s: Unit dist %v, Dist %v", s.Name(), dist, s.Dist(a, b))
			}
		}
	}
}

func TestUnitCoincidentPointsRandomDirection(t *testing.T) {
	s := Euclidean(3)
	r := randx.New(9)
	a := Coord{V: []float64{1, 2, 3}}
	u, dist := s.Unit(a, a.Clone(), r)
	if dist != 0 {
		t.Fatalf("dist %v for coincident points", dist)
	}
	sum := 0.0
	for _, x := range u.V {
		sum += x * x
	}
	if math.Abs(math.Sqrt(sum)-1) > 1e-9 {
		t.Fatalf("random unit norm %v", math.Sqrt(sum))
	}
}

func TestDisplaceMovesTowardTarget(t *testing.T) {
	s := Euclidean(2)
	r := randx.New(3)
	a := Coord{V: []float64{0, 0}}
	b := Coord{V: []float64{10, 0}}
	u, _ := s.Unit(a, b, r) // points from b to a = (-1, 0)
	// Vivaldi: positive f moves a away from b, negative toward.
	away := s.Displace(a, u, 5)
	if away.V[0] != -5 {
		t.Fatalf("displace away got %v", away)
	}
	toward := s.Displace(a, u, -5)
	if toward.V[0] != 5 {
		t.Fatalf("displace toward got %v", toward)
	}
}

func TestDisplaceClampsHeight(t *testing.T) {
	s := EuclideanHeight(2)
	a := Coord{V: []float64{0, 0}, H: 1}
	dir := Coord{V: []float64{0, 0}, H: 1}
	c := s.Displace(a, dir, -100)
	if c.H != s.MinHeight {
		t.Fatalf("height %v, want clamped to %v", c.H, s.MinHeight)
	}
}

func TestRandomWithinScale(t *testing.T) {
	s := EuclideanHeight(3)
	r := randx.New(11)
	for i := 0; i < 500; i++ {
		c := s.Random(r, 50000)
		for _, x := range c.V {
			if x < -50000 || x > 50000 {
				t.Fatalf("component %v out of range", x)
			}
		}
		if c.H < s.MinHeight || c.H > 50000 {
			t.Fatalf("height %v out of range", c.H)
		}
	}
}

func TestZero(t *testing.T) {
	s := EuclideanHeight(4)
	z := s.Zero()
	if len(z.V) != 4 || z.H != s.MinHeight {
		t.Fatalf("zero %v", z)
	}
	e := Euclidean(2).Zero()
	if e.H != 0 {
		t.Fatalf("euclidean zero has height %v", e.H)
	}
}

func TestMidpointAndToward(t *testing.T) {
	s := Euclidean(2)
	a := Coord{V: []float64{0, 0}}
	b := Coord{V: []float64{10, 20}}
	mid := s.Midpoint(a, b)
	if mid.V[0] != 5 || mid.V[1] != 10 {
		t.Fatalf("midpoint %v", mid)
	}
	q := s.Toward(a, b, 0.25)
	if q.V[0] != 2.5 || q.V[1] != 5 {
		t.Fatalf("toward %v", q)
	}
	if got := s.Toward(a, b, 0); got.V[0] != 0 || got.V[1] != 0 {
		t.Fatalf("toward(0) %v", got)
	}
	if got := s.Toward(a, b, 1); got.V[0] != 10 || got.V[1] != 20 {
		t.Fatalf("toward(1) %v", got)
	}
}

func TestOpposite(t *testing.T) {
	s := Euclidean(2)
	a := Coord{V: []float64{5, 5}}
	b := Coord{V: []float64{10, 5}}
	o := s.Opposite(a, b)
	if o.V[0] != 0 || o.V[1] != 5 {
		t.Fatalf("opposite %v, want (0,5)", o)
	}
	if math.Abs(s.Dist(a, o)-s.Dist(a, b)) > 1e-9 {
		t.Fatal("opposite not equidistant")
	}
}

func TestOppositePushProperty(t *testing.T) {
	// For any a != b, the opposite point o satisfies: dist(o,b) = 2*dist(a,b).
	s := Euclidean(3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := s.Random(r, 100), s.Random(r, 100)
		o := s.Opposite(a, b)
		return math.Abs(s.Dist(o, b)-2*s.Dist(a, b)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Coord{V: []float64{1, 2}, H: 3}
	b := a.Clone()
	b.V[0] = 99
	b.H = 99
	if a.V[0] != 1 || a.H != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestIsValid(t *testing.T) {
	if !(Coord{V: []float64{1, 2}}).IsValid() {
		t.Fatal("valid coord reported invalid")
	}
	if (Coord{V: []float64{math.NaN()}}).IsValid() {
		t.Fatal("NaN coord reported valid")
	}
	if (Coord{V: []float64{1}, H: math.Inf(1)}).IsValid() {
		t.Fatal("Inf height reported valid")
	}
}

func TestCompatible(t *testing.T) {
	s := Euclidean(3)
	if !s.Compatible(Coord{V: []float64{1, 2, 3}}) {
		t.Fatal("compatible coord rejected")
	}
	if s.Compatible(Coord{V: []float64{1, 2}}) {
		t.Fatal("wrong-dims coord accepted")
	}
}

func TestName(t *testing.T) {
	if Euclidean(2).Name() != "2D" {
		t.Fatal(Euclidean(2).Name())
	}
	if EuclideanHeight(2).Name() != "2D+h" {
		t.Fatal(EuclideanHeight(2).Name())
	}
}

func TestNormOf(t *testing.T) {
	s := Euclidean(2)
	c := Coord{V: []float64{3, 4}}
	if n := s.NormOf(c); math.Abs(n-5) > 1e-12 {
		t.Fatalf("norm %v", n)
	}
}

func TestEuclideanPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Euclidean(0)
}

func TestStringRendering(t *testing.T) {
	c := Coord{V: []float64{1, -2}, H: 3}
	got := c.String()
	if got != "(1.00,-2.00;h=3.00)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestIntoFormsMatch pins the in-place forms against the allocating ones
// they back: same draws consumed, same bits produced, whether the scratch
// is fresh, reused or (TowardInto) aliases an input.
func TestIntoFormsMatch(t *testing.T) {
	sameBits := func(a, b Coord) bool {
		if len(a.V) != len(b.V) || math.Float64bits(a.H) != math.Float64bits(b.H) {
			return false
		}
		for i := range a.V {
			if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
				return false
			}
		}
		return true
	}
	for _, s := range []Space{Euclidean(2), Euclidean(5), EuclideanHeight(2)} {
		var scratch Coord // reused across seeds, like a tap's
		for seed := int64(0); seed < 64; seed++ {
			ra, rb := randx.New(seed), randx.New(seed)
			want := s.Random(ra, 50000)
			s.RandomInto(&scratch, rb, 50000)
			if !sameBits(want, scratch) {
				t.Fatalf("%s seed %d: RandomInto %v, Random %v", s.Name(), seed, scratch, want)
			}
			if ra.Int63() != rb.Int63() {
				t.Fatalf("%s seed %d: RandomInto consumed different draws", s.Name(), seed)
			}

			a, b := s.Random(ra, 300), s.Random(ra, 300)
			for _, tt := range []float64{0, 0.25, 1, 2, -3} {
				want := s.Toward(a, b, tt)
				s.TowardInto(&scratch, a, b, tt)
				if !sameBits(want, scratch) {
					t.Fatalf("%s seed %d t=%v: TowardInto %v, Toward %v", s.Name(), seed, tt, scratch, want)
				}
				alias := a.Clone()
				s.TowardInto(&alias, alias, b, tt)
				if !sameBits(want, alias) {
					t.Fatalf("%s seed %d t=%v: TowardInto aliasing a: %v, want %v", s.Name(), seed, tt, alias, want)
				}
			}
		}
	}
	// A scratch that held a height keeps none in a height-less space.
	stale := Coord{V: []float64{1, 2, 3}, H: 7} // wrong length: replaced whole
	Euclidean(2).RandomInto(&stale, randx.New(1), 10)
	if len(stale.V) != 2 || stale.H != 0 {
		t.Fatalf("RandomInto left a stale shape: %v (len %d)", stale, len(stale.V))
	}
}

// TestNormOfMatchesDist: the in-place norm is Dist(c, Zero()) to the bit,
// floor height included, on ordinary, huge, denormal and non-finite input.
func TestNormOfMatchesDist(t *testing.T) {
	denorm := math.SmallestNonzeroFloat64
	for _, s := range []Space{Euclidean(2), Euclidean(5), EuclideanHeight(2)} {
		mk := func(x, h float64) Coord {
			c := Coord{V: make([]float64, s.Dims), H: h}
			for i := range c.V {
				c.V[i] = x * float64(i+1)
				if i%2 == 1 {
					c.V[i] = -c.V[i]
				}
			}
			return c
		}
		cases := []Coord{
			s.Zero(), mk(3, 4), mk(1e39, 1e39), mk(1e200, 0), mk(denorm, denorm),
			mk(1e-170, 1e-300), mk(math.Copysign(0, -1), 0), mk(math.Inf(1), 1), mk(math.NaN(), 0), mk(1, math.NaN()),
		}
		rng := randx.New(3)
		for i := 0; i < 200; i++ {
			cases = append(cases, s.Random(rng, 50000))
		}
		for _, c := range cases {
			got, want := s.NormOf(c), s.Dist(c, s.Zero())
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: NormOf(%v) = %x, Dist(c, Zero()) = %x", s.Name(), c, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestNormOfAllocs(t *testing.T) {
	s := EuclideanHeight(2)
	c := s.Random(randx.New(1), 100)
	if allocs := testing.AllocsPerRun(100, func() { _ = s.NormOf(c) }); allocs != 0 {
		t.Fatalf("NormOf allocates %.1f times, want 0", allocs)
	}
}
