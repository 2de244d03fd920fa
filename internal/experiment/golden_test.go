// The golden figure suite lives in the external test package: report
// imports experiment (for the Result type), so importing report from an
// internal test would cycle.
package experiment_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/report"
)

// goldenBenchFigures is every figure CSV captured before the hardening
// pipeline landed. The list deliberately spans both systems, every attack
// family, churn (extC) and the genesis/injection split (extB), so a byte
// match certifies that hardening-off leaves the entire published figure
// set untouched. extA (PIC, the Custom-runner path) was captured later,
// immediately before PIC moved onto gnp.HostSolver, and pins that port.
var goldenBenchFigures = []string{
	"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
	"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig21",
	"extA", "extB", "extC",
}

// goldenLiveFigures replays two of those over the live virtual-UDP
// backend.
var goldenLiveFigures = []string{"fig09", "extC"}

func checkFigureGolden(t *testing.T, dir, id string, p experiment.Preset) {
	t.Helper()
	res, err := experiment.RunWith(id, p, 0)
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	var got bytes.Buffer
	if err := report.WriteCSV(&got, res); err != nil {
		t.Fatalf("render %s: %v", id, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", dir, id+".csv"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s/%s.csv diverged from its golden — refactors and the all-off hardening path must leave every figure byte-identical", dir, id)
	}
}

// TestFigureCSVsBitIdentical regenerates the captured figure set at the
// bench preset and byte-compares each CSV against the pre-change goldens,
// on both the in-memory and the live backend. This is the end-to-end form
// of the hardened-off contract: registry → engine → adapters → report.
func TestFigureCSVsBitIdentical(t *testing.T) {
	preset, err := experiment.PresetByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range goldenBenchFigures {
		id := id
		t.Run("bench/"+id, func(t *testing.T) {
			t.Parallel()
			checkFigureGolden(t, "bench", id, preset)
		})
	}
	live := preset
	live.Backend = engine.BackendLive
	for _, id := range goldenLiveFigures {
		id := id
		t.Run("live/"+id, func(t *testing.T) {
			t.Parallel()
			checkFigureGolden(t, "live", id, live)
		})
	}
}
