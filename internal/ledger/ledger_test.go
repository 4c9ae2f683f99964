package ledger

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/telemetry"
)

// midBandManifest builds a manifest whose every expected metric sits at the
// midpoint of its band — the canonical "shape holds" fixture.
func midBandManifest(quick bool) *Manifest {
	m := NewManifest("hwgc-bench", Scale{GCs: 1, Seed: 42, Quick: quick})
	m.CreatedAt = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	byExp := make(map[string]*Experiment)
	for _, b := range experiments.Expectations() {
		e, ok := byExp[b.Experiment]
		if !ok {
			m.Experiments = append(m.Experiments, Experiment{
				ID: b.Experiment, Metrics: map[string]float64{},
			})
			e = &m.Experiments[len(m.Experiments)-1]
			byExp[b.Experiment] = e
		}
		lo, hi := b.Range(quick)
		e.Metrics[b.Metric] = (lo + hi) / 2
	}
	return m
}

func TestCheckManifestMidBandHolds(t *testing.T) {
	for _, quick := range []bool{false, true} {
		res := CheckManifest(midBandManifest(quick))
		if !res.OK() {
			for _, c := range res.Checks {
				if c.Verdict != VerdictHolds {
					t.Errorf("quick=%v: %s", quick, c)
				}
			}
		}
		if len(res.Checks) != len(experiments.Expectations()) {
			t.Fatalf("quick=%v: %d checks for %d bands", quick,
				len(res.Checks), len(experiments.Expectations()))
		}
	}
}

func TestCheckManifestPerturbedDriftsAndBreaks(t *testing.T) {
	m := midBandManifest(true)
	// Push fig15 mark speedup far outside its band: the shape is broken and
	// the report names the experiment.
	exp, ok := m.Experiment("fig15")
	if !ok {
		t.Fatal("fixture lost fig15")
	}
	for i := range m.Experiments {
		if m.Experiments[i].ID == "fig15" {
			m.Experiments[i].Metrics["mark_speedup_mean"] = exp.Metrics["mark_speedup_mean"] * 50
		}
	}
	res := CheckManifest(m)
	if res.OK() {
		t.Fatal("perturbed manifest still passes")
	}
	var hit Check
	for _, c := range res.Checks {
		if c.Verdict != VerdictHolds {
			hit = c
		}
	}
	if hit.Band.Experiment != "fig15" || hit.Band.Metric != "mark_speedup_mean" {
		t.Fatalf("wrong check flagged: %+v", hit)
	}
	if hit.Verdict != VerdictBroken {
		t.Fatalf("50x perturbation should be broken, got %s", hit.Verdict)
	}
	if !strings.Contains(hit.String(), "fig15/mark_speedup_mean") {
		t.Fatalf("report line does not name the experiment: %q", hit.String())
	}
}

func TestJudgeDriftMargin(t *testing.T) {
	// Band [1, 3]: margin is 1 on either side.
	cases := []struct {
		v    float64
		want Verdict
	}{
		{2, VerdictHolds}, {1, VerdictHolds}, {3, VerdictHolds},
		{0.5, VerdictDrifted}, {3.9, VerdictDrifted},
		{-0.5, VerdictBroken}, {4.1, VerdictBroken},
	}
	for _, c := range cases {
		if got := judge(c.v, 1, 3); got != c.want {
			t.Errorf("judge(%v, 1, 3) = %s, want %s", c.v, got, c.want)
		}
	}
	// Exact band admits no drift.
	if got := judge(0.999, 1, 1); got != VerdictBroken {
		t.Errorf("exact band: got %s, want broken", got)
	}
	if got := judge(1, 1, 1); got != VerdictHolds {
		t.Errorf("exact band hit: got %s, want holds", got)
	}
}

func TestMissingAndSkippedVerdicts(t *testing.T) {
	m := midBandManifest(true)
	var kept []Experiment
	for _, e := range m.Experiments {
		switch e.ID {
		case "fig1a": // drop entirely -> missing
		case "fig1b":
			e.Error = "boom" // errored -> skipped
			kept = append(kept, e)
		default:
			kept = append(kept, e)
		}
	}
	m.Experiments = kept
	res := CheckManifest(m)
	if res.Count(VerdictMissing) != 2 { // fig1a has two bands
		t.Errorf("missing = %d, want 2", res.Count(VerdictMissing))
	}
	if res.Count(VerdictSkipped) != 1 {
		t.Errorf("skipped = %d, want 1", res.Count(VerdictSkipped))
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := midBandManifest(true)
	m2 := midBandManifest(false)
	m2.CreatedAt = m1.CreatedAt.Add(time.Second)
	m2.Tool = "hwgc-sim"
	m1.SnapshotTelemetry(func() *telemetry.Hub {
		h := telemetry.NewHub(0)
		h.Reg.Counter("test.counter").Add(7)
		h.Reg.Histogram("test.hist").Observe(4)
		return h
	}())
	for _, m := range []*Manifest{m1, m2} {
		if _, err := s.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("List: %d paths, want 2", len(paths))
	}
	latest, path, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Tool != "hwgc-sim" || path != paths[1] {
		t.Fatalf("Latest = %s (%s), want hwgc-sim (%s)", latest.Tool, path, paths[1])
	}
	got, err := ReadManifest(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || !got.Scale.Quick {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}
	if got.Telemetry["test.counter"] != 7 {
		t.Errorf("telemetry counter = %v, want 7", got.Telemetry["test.counter"])
	}
	if got.Telemetry["test.hist.count"] != 1 || got.Telemetry["test.hist.p50"] == 0 {
		t.Errorf("telemetry histogram flatten: %v", got.Telemetry)
	}
}

func TestDiffRanksRegressions(t *testing.T) {
	from := midBandManifest(true)
	to := midBandManifest(true)
	set := func(m *Manifest, id, metric string, v float64) {
		for i := range m.Experiments {
			if m.Experiments[i].ID == id {
				m.Experiments[i].Metrics[metric] = v
			}
		}
	}
	base := from.Metrics()
	set(to, "fig15", "mark_speedup_mean", base["fig15/mark_speedup_mean"]*0.5) // -50%
	set(to, "fig17", "port_busy_mean", base["fig17/port_busy_mean"]*0.9)       // -10%
	set(to, "fig19", "extra_metric", 1)                                        // only in to
	ds := Diff(from, to, 0.01)
	if len(ds) != 3 {
		t.Fatalf("got %d deltas, want 3: %v", len(ds), ds)
	}
	if ds[0].Experiment != "fig15" || ds[1].Experiment != "fig17" {
		t.Fatalf("not ranked by |rel|: %v", ds)
	}
	if ds[2].OnlyIn != "to" || ds[2].Metric != "extra_metric" {
		t.Fatalf("one-sided delta not last: %v", ds)
	}
	// Below-epsilon moves are omitted; one-sided deltas always survive.
	if ds := Diff(from, to, 0.2); len(ds) != 2 {
		t.Fatalf("epsilon filter: got %d deltas, want 2: %v", len(ds), ds)
	}
}

// TestTimeseriesRoundTrip: a recorded hub snapshots into the manifest's
// timeseries section and survives the write/read cycle intact — parallel
// cycle/value arrays, schema version, run names.
func TestTimeseriesRoundTrip(t *testing.T) {
	h := telemetry.NewHub(10)
	h.EnableRecording(32)
	g := 0.0
	h.Reg.Gauge("unit.occ", func() float64 { return g })
	for cyc := uint64(10); cyc <= 50; cyc += 10 {
		g = float64(cyc)
		h.Sample(cyc)
	}

	m := midBandManifest(true)
	m.SnapshotTimeseries(h)
	if m.Timeseries == nil || m.Timeseries.SchemaVersion != TimeseriesSchemaVersion {
		t.Fatalf("snapshot: %+v", m.Timeseries)
	}
	if m.Timeseries.SampleEvery != 10 {
		t.Fatalf("SampleEvery = %d, want 10", m.Timeseries.SampleEvery)
	}

	dir := filepath.Join(t.TempDir(), "ledger")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path, err := s.Append(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timeseries == nil || got.Timeseries.SchemaVersion != TimeseriesSchemaVersion {
		t.Fatalf("round trip lost timeseries: %+v", got.Timeseries)
	}
	var occ *Series
	for i := range got.Timeseries.Runs[0].Series {
		if got.Timeseries.Runs[0].Series[i].Name == "unit.occ" {
			occ = &got.Timeseries.Runs[0].Series[i]
		}
	}
	if occ == nil {
		t.Fatalf("unit.occ series missing: %+v", got.Timeseries.Runs[0])
	}
	if len(occ.Cycles) != len(occ.Values) || len(occ.Cycles) != 5 {
		t.Fatalf("parallel arrays: %d cycles, %d values, want 5 each", len(occ.Cycles), len(occ.Values))
	}
	for i, c := range occ.Cycles {
		if c != uint64(10*(i+1)) || occ.Values[i] != float64(c) {
			t.Fatalf("point %d = (%d, %v), want (%d, %d)", i, c, occ.Values[i], 10*(i+1), 10*(i+1))
		}
	}

	// A recording-free hub leaves the section absent entirely.
	m2 := midBandManifest(false)
	m2.SnapshotTimeseries(telemetry.NewHub(0))
	if m2.Timeseries != nil {
		t.Fatalf("unrecorded hub produced a timeseries section: %+v", m2.Timeseries)
	}
}
