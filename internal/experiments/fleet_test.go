package experiments

import (
	"errors"
	"strings"
	"testing"

	"hwgc/internal/telemetry"
)

// fastOptions are the smallest settings that still run every phase of every
// experiment: quick scale with an extra 4x shrink.
func fastOptions() Options {
	o := QuickOptions()
	o.Shrink = 4
	return o
}

// TestFleetParallelMatchesSerial is the core determinism guarantee of the
// parallel fleet: running the suite with 8 workers must produce reports that
// are byte-identical to a serial run, experiment by experiment.
func TestFleetParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism check is not -short")
	}
	runners := All()
	serial := RunFleet(runners, fastOptions(), 1)
	par := RunFleet(runners, fastOptions(), 8)
	if len(serial) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(par))
	}
	for i, s := range serial {
		p := par[i]
		if s.Runner.ID != p.Runner.ID {
			t.Fatalf("result %d: order differs: %s vs %s", i, s.Runner.ID, p.Runner.ID)
		}
		if (s.Err == nil) != (p.Err == nil) {
			t.Errorf("%s: error mismatch: serial=%v parallel=%v", s.Runner.ID, s.Err, p.Err)
			continue
		}
		if got, want := p.Report.String(), s.Report.String(); got != want {
			t.Errorf("%s: parallel report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				s.Runner.ID, want, got)
		}
	}
}

// TestFleetParallelSmoke runs a fast subset of real experiments at width 8
// and compares against serial. Unlike the full-suite check above it is not
// skipped in -short mode, so the race-detector pass in scripts/check.sh
// always exercises concurrent simulation cells.
func TestFleetParallelSmoke(t *testing.T) {
	ids := []string{"table1", "fig22", "abl-barriers", "abl-layout"}
	runners := make([]Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		runners = append(runners, r)
	}
	o := fastOptions()
	o.Shrink = 8
	serial := RunFleet(runners, o, 1)
	par := RunFleet(runners, o, 8)
	for i, s := range serial {
		if s.Err != nil {
			t.Fatalf("%s: serial run failed: %v", s.Runner.ID, s.Err)
		}
		if got, want := par[i].Report.String(), s.Report.String(); got != want {
			t.Errorf("%s: parallel report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				s.Runner.ID, want, got)
		}
	}
}

// TestMapCellsOrderAndErrors pins the mapCells contract: results arrive in
// cell order, and the reported error is the lowest-index failure regardless
// of width.
func TestMapCellsOrderAndErrors(t *testing.T) {
	for _, width := range []int{1, 3, 16} {
		o := Options{Parallel: width}
		vals, err := mapCells(o, 10, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("width %d: unexpected error: %v", width, err)
		}
		for i, v := range vals {
			if v != i*i {
				t.Fatalf("width %d: cell %d = %d, want %d", width, i, v, i*i)
			}
		}

		boom := errors.New("boom")
		_, err = mapCells(o, 10, func(i int) (int, error) {
			if i >= 4 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("width %d: error = %v, want lowest failing cell's error", width, err)
		}
	}
}

// TestMapCellsRecoversPanics checks a panicking cell becomes that cell's
// error (with the index in the message) instead of crashing the process.
func TestMapCellsRecoversPanics(t *testing.T) {
	for _, width := range []int{1, 4} {
		o := Options{Parallel: width}
		_, err := mapCells(o, 6, func(i int) (int, error) {
			if i == 2 {
				panic("cell exploded")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell 2: panic: cell exploded") {
			t.Fatalf("width %d: err = %v, want recovered panic from cell 2", width, err)
		}
	}
}

// TestRunFleetShieldsPanics checks a panicking runner is reported as that
// runner's error and does not disturb its neighbours.
func TestRunFleetShieldsPanics(t *testing.T) {
	runners := []Runner{
		{ID: "ok", Run: func(o Options) (Report, error) {
			return Report{ID: "ok", Rows: []string{"fine"}}, nil
		}},
		{ID: "bad", Run: func(o Options) (Report, error) {
			panic("runner exploded")
		}},
	}
	for _, width := range []int{1, 4} {
		res := RunFleet(runners, Options{}, width)
		if res[0].Err != nil || len(res[0].Report.Rows) != 1 {
			t.Fatalf("width %d: healthy runner disturbed: %+v", width, res[0])
		}
		if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "bad: panic: runner exploded") {
			t.Fatalf("width %d: err = %v, want recovered panic from runner", width, res[1].Err)
		}
	}
}

// TestWidthTelemetryGate checks that Width resolves only the requested
// parallelism: telemetry rides in Options.Tel and every runner forks a
// private child hub, so there is no hub that could narrow the fleet.
func TestWidthTelemetryGate(t *testing.T) {
	if got := Width(8); got != 8 {
		t.Fatalf("Width(8) = %d, want 8", got)
	}
	if got := Width(0); got < 1 {
		t.Fatalf("Width(0) = %d, want >= 1", got)
	}
}

// TestSyncHubParallelFleet is the Options.Tel contract: an instrumented
// fleet keeps its parallel width (each runner forks a private child), runs
// race-free, and reports and the hub's Snapshot() sums are byte-identical
// to a serial instrumented run — the aggregate is pure summation, so it
// cannot depend on completion order.
func TestSyncHubParallelFleet(t *testing.T) {
	ids := []string{"table1", "fig22", "abl-layout"}
	runners := make([]Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		runners = append(runners, r)
	}
	o := fastOptions()
	o.Shrink = 8

	run := func(width int) (reports, summary string) {
		o := o
		o.Tel = telemetry.NewHub(256)
		var rep strings.Builder
		for _, res := range RunFleet(runners, o, width) {
			if res.Err != nil {
				t.Fatalf("width %d: %s: %v", width, res.Runner.ID, res.Err)
			}
			rep.WriteString(res.Report.String())
		}
		var sum strings.Builder
		if err := o.Tel.Snapshot().WriteSummary(&sum); err != nil {
			t.Fatalf("width %d: snapshot: %v", width, err)
		}
		return rep.String(), sum.String()
	}

	serialReports, serialSummary := run(1)
	parReports, parSummary := run(8)
	if !strings.Contains(serialSummary, "heap.allocations") {
		t.Fatalf("summary looks empty or unpopulated:\n%s", serialSummary)
	}
	if parReports != serialReports {
		t.Errorf("parallel reports differ from serial with Options.Tel set:\n--- serial ---\n%s--- parallel ---\n%s",
			serialReports, parReports)
	}
	if parSummary != serialSummary {
		t.Errorf("parallel telemetry snapshot differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serialSummary, parSummary)
	}
}
