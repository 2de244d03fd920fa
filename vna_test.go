package vna

import (
	"math/rand"
	"strings"
	"testing"
)

func randSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func TestGenerateInternetDeterministic(t *testing.T) {
	a := GenerateInternet(40, 1)
	b := GenerateInternet(40, 1)
	if a.Size() != 40 {
		t.Fatalf("size %d", a.Size())
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if a.RTT(i, j) != b.RTT(i, j) {
				t.Fatal("GenerateInternet not deterministic")
			}
		}
	}
}

func TestLoadMatrixRoundTrip(t *testing.T) {
	m := GenerateInternet(10, 2)
	var sb strings.Builder
	if err := m.Save(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMatrix(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 10 {
		t.Fatalf("loaded size %d", got.Size())
	}
}

func TestSubgroup(t *testing.T) {
	m := GenerateInternet(50, 3)
	sub, ids := Subgroup(m, 12, 1)
	if sub.Size() != 12 || len(ids) != 12 {
		t.Fatal("subgroup size")
	}
}

func TestEndToEndAttackViaPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	internet := GenerateInternet(120, 4)
	sys := NewVivaldi(internet, VivaldiConfig{}, 4)
	sys.Run(1200)
	peers := EvalPeers(internet.Size(), 0, 4)
	clean := AverageError(internet, sys.Space(), sys.Coords(), peers, nil)
	if clean > 0.8 {
		t.Fatalf("clean error %v", clean)
	}
	attackers := SelectMalicious(internet.Size(), 0.4, nil, 4)
	mal := map[int]bool{}
	for _, id := range attackers {
		mal[id] = true
		sys.SetTap(id, NewDisorderAttack(id, 4))
	}
	sys.Run(1000)
	honest := func(i int) bool { return !mal[i] }
	attacked := AverageError(internet, sys.Space(), sys.Coords(), peers, honest)
	if attacked < clean*3 {
		t.Fatalf("attack via public API ineffective: %v vs %v", attacked, clean)
	}
	random := RandomBaseline(internet, sys.Space(), peers, 4)
	if random < attacked/100 {
		t.Fatalf("random baseline %v vs attacked %v", random, attacked)
	}
}

func TestNPSViaPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	internet := GenerateInternet(120, 5)
	sys := NewNPS(internet, NPSConfig{Security: true, ProbeThresholdMS: 5000, NumLandmarks: 10}, 5)
	sys.Run(3)
	attackers := SelectMalicious(internet.Size(), 0.2, sys.IsLandmark, 5)
	for _, id := range attackers {
		sys.SetTap(id, NewNPSDisorderAttack(id, 5))
	}
	sys.Run(3)
	if sys.Stats().Total == 0 {
		t.Fatal("NPS filter never fired via public API")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", PresetQuick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := RunExperimentWith("nope", PresetQuick, 4); err == nil {
		t.Fatal("unknown experiment accepted with workers")
	}
}

func TestRunExperimentWithWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run")
	}
	res, err := RunExperimentWith("fig02", PresetBench, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || res.Title == "" {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestExperimentsListed(t *testing.T) {
	exps := Experiments()
	if len(exps) != 51 { // 25 paper figures + 3 extensions + 7 scaling specs + 5 live-backend specs + 6 campaign specs + 5 hardened-defense specs
		t.Fatalf("listed %d experiments, want 51", len(exps))
	}
}

func TestRelativeErrorExported(t *testing.T) {
	if RelativeError(100, 50) != 1 {
		t.Fatal("RelativeError")
	}
}

func TestConspiracyAndColludingTapsConstructible(t *testing.T) {
	internet := GenerateInternet(30, 6)
	sys := NewVivaldi(internet, VivaldiConfig{}, 6)
	c := NewConspiracy(0, sys.Space(), 6)
	sys.SetTap(3, NewColludingRepelAttack(3, c))
	sys.SetTap(4, NewColludingLureAttack(4, c, sys.Space()))
	sys.SetTap(5, NewRepulsionAttack(5, sys.Space(), map[int]bool{1: true}, 6))
	sys.Run(10)
}

func TestNPSAttackConstructors(t *testing.T) {
	internet := GenerateInternet(60, 7)
	sys := NewNPS(internet, NPSConfig{NumLandmarks: 8, ProbeThresholdMS: 5000}, 7)
	var ordinary int
	for i := 0; i < sys.Size(); i++ {
		if !sys.IsLandmark(i) {
			ordinary = i
			break
		}
	}
	sys.SetTap(ordinary, NewNPSAntiDetectionAttack(ordinary, 0.5, 7))
	sys.SetTap(ordinary, NewNPSSophisticatedAttack(ordinary, 0.5, 5000, 7))
	sys.Run(1)
}

func TestDefenseGuardExported(t *testing.T) {
	guard := NewDefenseGuard(DefenseConfig{})
	internet := GenerateInternet(20, 8)
	sys := NewVivaldi(internet, VivaldiConfig{SampleGuard: guard}, 8)
	sys.Run(50)
}
