package randx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Fatal("Mix64 collides on adjacent inputs")
	}
}

func TestMix64AvalancheProperty(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	f := func(x uint64, bit uint8) bool {
		b := uint(bit % 64)
		a := Mix64(x)
		c := Mix64(x ^ (1 << b))
		diff := a ^ c
		n := 0
		for diff != 0 {
			n += int(diff & 1)
			diff >>= 1
		}
		return n >= 10 && n <= 54
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[int64]string)
	for _, label := range []string{"a", "b", "latency", "attack"} {
		for i := 0; i < 100; i++ {
			s := DeriveSeed(7, label, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %q/%d and %s", label, i, prev)
			}
			seen[s] = label
		}
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(123, "x", 5)
	b := DeriveSeed(123, "x", 5)
	if a != b {
		t.Fatal("DeriveSeed not stable")
	}
	if DeriveSeed(123, "x", 6) == a {
		t.Fatal("DeriveSeed ignores index")
	}
	if DeriveSeed(124, "x", 5) == a {
		t.Fatal("DeriveSeed ignores parent")
	}
	if DeriveSeed(123, "y", 5) == a {
		t.Fatal("DeriveSeed ignores label")
	}
}

func TestUniformRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		v := Uniform(r, -3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("uniform sample %v out of [-3,9)", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		if v := LogNormal(r, 0, 1); v <= 0 {
			t.Fatalf("lognormal sample %v not positive", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	// Median of LogNormal(mu, sigma) is exp(mu).
	r := New(3)
	mu := math.Log(80)
	n, below := 20000, 0
	for i := 0; i < n; i++ {
		if LogNormal(r, mu, 0.5) < 80 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median fraction %v, want ~0.5", frac)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(4)
	for i := 0; i < 1000; i++ {
		if v := Pareto(r, 2, 1.5); v < 2 {
			t.Fatalf("pareto sample %v below scale", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(5)
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += Exponential(r, 10)
	}
	mean := sum / float64(n)
	if mean < 9 || mean > 11 {
		t.Fatalf("exponential mean %v, want ~10", mean)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(6)
	for trial := 0; trial < 100; trial++ {
		s := Sample(r, 50, 20)
		if len(s) != 20 {
			t.Fatalf("sample len %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 50 {
				t.Fatalf("sample value %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate sample value %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleFull(t *testing.T) {
	r := New(7)
	s := Sample(r, 10, 10)
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("full sample missing values: %v", s)
	}
}

func TestSamplePanicsOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sample(New(8), 3, 4)
}

func TestSampleUniformity(t *testing.T) {
	// Every element should appear in a k-of-n sample with probability k/n.
	r := New(9)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range Sample(r, n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("element %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(10)
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(11)
	hits := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bernoulli(0.3) rate %v", frac)
	}
}

func TestPick(t *testing.T) {
	r := New(12)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never returned some elements: %v", seen)
	}
}

func TestNewDerivedStreamsDiffer(t *testing.T) {
	a := NewDerived(5, "s", 0)
	b := NewDerived(5, "s", 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams overlap (%d identical draws)", same)
	}
}

// TestCopySourceContinuesIdentically pins the one thing CopySource relies
// on that math/rand does not promise: that the seeded source's state is
// the struct behind the pointer. For 64 seeds, a stream advanced by a
// varying mix of draws and then copied must yield the same next 10 000
// values as the original, and one extra draw on either side must separate
// them — if a Go release changes the source's layout, this fails loudly.
func TestCopySourceContinuesIdentically(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		src := rand.NewSource(DeriveSeed(seed, "copy", 0))
		r := rand.New(src)
		for k := 0; k < int(seed)*37+1; k++ {
			switch k % 3 {
			case 0:
				r.Intn(1000)
			case 1:
				r.Float64()
			default:
				r.NormFloat64()
			}
		}
		dup := CopySource(src)
		c := rand.New(dup)
		if dup == src {
			t.Fatalf("seed %d: CopySource returned its argument", seed)
		}
		for k := 0; k < 10000; k++ {
			if a, b := r.Int63(), c.Int63(); a != b {
				t.Fatalf("seed %d: draw %d differs after copy: %d vs %d", seed, k, a, b)
			}
		}
		// Independent: an extra draw on either side separates them.
		for side := 0; side < 2; side++ {
			c = rand.New(CopySource(src))
			if side == 0 {
				r.Int63()
			} else {
				c.Int63()
			}
			same := true
			for k := 0; k < 8; k++ {
				same = same && r.Int63() == c.Int63()
			}
			if same {
				t.Fatalf("seed %d: the two sides still agree after an extra draw on side %d", seed, side)
			}
		}
	}
}
