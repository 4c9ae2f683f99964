package experiments

import (
	"strings"
	"testing"
)

func run(t *testing.T, id string) Report {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	rep, err := r.Run(QuickOptions())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(rep.Rows) == 0 {
		t.Fatalf("%s: empty report", id)
	}
	return rep
}

func TestRegistryCoversAllFigures(t *testing.T) {
	want := []string{"fig1a", "fig1b", "table1", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
		"abl-mas", "abl-layout", "abl-barriers", "abl-throttle"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d runners, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("runner %d = %s, want %s", i, all[i].ID, id)
		}
	}
}

func TestFig1aFractionsInPaperRange(t *testing.T) {
	rep := run(t, "fig1a")
	for _, row := range rep.Rows {
		if !strings.Contains(row, "%") {
			t.Fatalf("row without percentage: %q", row)
		}
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("fig1a rows = %d, want 6 benchmarks", len(rep.Rows))
	}
}

func TestFig1bHasTail(t *testing.T) {
	rep := run(t, "fig1b")
	joined := strings.Join(rep.Rows, "\n")
	if !strings.Contains(joined, "tail/median") {
		t.Fatalf("fig1b missing tail summary:\n%s", joined)
	}
}

func TestTable1(t *testing.T) {
	rep := run(t, "table1")
	if !strings.Contains(strings.Join(rep.Rows, " "), "DDR3-2000") {
		t.Fatal("table1 missing memory configuration")
	}
}

func TestFig22AreaRatio(t *testing.T) {
	rep := run(t, "fig22")
	joined := strings.Join(rep.Rows, "\n")
	if !strings.Contains(joined, "% of Rocket") {
		t.Fatalf("fig22 missing ratio:\n%s", joined)
	}
}

// The heavier simulation experiments get one combined smoke test each so a
// full `go test` stays tractable; the full-scale numbers are produced by
// cmd/hwgc-bench.

func TestFig15Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep := run(t, "fig15")
	if !strings.Contains(rep.Rows[len(rep.Rows)-1], "mean speedup") {
		t.Fatal("fig15 missing mean speedup row")
	}
}

func TestFig17Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep := run(t, "fig17")
	if !strings.Contains(rep.Rows[len(rep.Rows)-1], "cycles/request") {
		t.Fatal("fig17 missing cycles/request")
	}
}

func TestFig19Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep := run(t, "fig19")
	if !strings.Contains(strings.Join(rep.Rows, "\n"), "compressed") {
		t.Fatal("fig19 missing compression variant")
	}
}

func TestFig21Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep := run(t, "fig21")
	joined := strings.Join(rep.Rows, "\n")
	if !strings.Contains(joined, "10%") {
		t.Fatalf("fig21 missing skew summary:\n%s", joined)
	}
}

func TestFig23Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep := run(t, "fig23")
	if !strings.Contains(rep.Rows[len(rep.Rows)-1], "energy saving") {
		t.Fatal("fig23 missing energy saving")
	}
}

func TestAblBarriers(t *testing.T) {
	rep := run(t, "abl-barriers")
	joined := strings.Join(rep.Rows, "\n")
	for _, want := range []string{"software check", "VM trap", "coherence", "REFLOAD"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("abl-barriers missing %q: %s", want, joined)
		}
	}
}

// TestAblLayoutSecondCollection runs abl-layout at two collections, so the
// software sweep between them runs on both layouts and the second mark
// reads the heap that sweep left.
func TestAblLayoutSecondCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := QuickOptions()
	o.GCs, o.Shrink = 2, 4
	if _, err := AblLayout(o); err != nil {
		t.Fatal(err)
	}
}

func TestAblLayoutQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep := run(t, "abl-layout")
	if !strings.Contains(strings.Join(rep.Rows, "\n"), "TIB layout") {
		t.Fatal("abl-layout missing TIB row")
	}
}
