package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRecordingOffByDefault: a hub without EnableRecording keeps no series,
// no matter how many probe ticks fire.
func TestRecordingOffByDefault(t *testing.T) {
	h := NewHub(10)
	c := h.Reg.Counter("work.done")
	for cyc := uint64(10); cyc <= 100; cyc += 10 {
		c.Add(5)
		h.Sample(cyc)
	}
	if got := h.RecordedSeries(); len(got) != 0 {
		t.Fatalf("RecordedSeries with recording off = %v, want none", got)
	}
	if v, _ := h.Reg.Value("telemetry.sampler.samples"); v != 10 {
		t.Fatalf("telemetry.sampler.samples = %v, want 10 ticks counted", v)
	}
	var b bytes.Buffer
	if err := h.WriteSamplesJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatalf("WriteSamplesJSONL with recording off = %q, %v; want nothing", b.String(), err)
	}
}

// TestRecorderGaugeAndCounter checks the two accumulation modes: gauges
// record the window mean, counters the per-cycle rate over the window.
func TestRecorderGaugeAndCounter(t *testing.T) {
	h := NewHub(10)
	h.EnableRecording(0)
	g := 0.0
	h.Reg.Gauge("queue.occupancy", func() float64 { return g })
	c := h.Reg.Counter("bytes.moved")

	// Each tick: gauge 4.0, counter +30 over a 10-cycle window → rate 3/cycle.
	for cyc := uint64(10); cyc <= 30; cyc += 10 {
		g = 4.0
		c.Add(30)
		h.Sample(cyc)
	}

	runs := h.RecordedSeries()
	if len(runs) != 1 || runs[0].Run != "main" {
		t.Fatalf("RecordedSeries = %+v, want the hub's own run \"main\"", runs)
	}
	byName := map[string]SeriesData{}
	for _, s := range runs[0].Series {
		byName[s.Name] = s
	}
	gs, ok := byName["queue.occupancy"]
	if !ok || len(gs.Points) != 3 {
		t.Fatalf("gauge series = %+v, want 3 points", gs)
	}
	for i, p := range gs.Points {
		if p.Val != 4.0 || p.Cycle != uint64(10*(i+1)) {
			t.Fatalf("gauge point %d = %+v, want {%d 4}", i, p, 10*(i+1))
		}
	}
	// The counter's first window baselines at its current value (a metric is
	// first seen at its first tick), so point 0 reports 0; the rest report
	// the true per-cycle rate 30/10.
	cs := byName["bytes.moved"]
	if len(cs.Points) != 3 || cs.Points[0].Val != 0 {
		t.Fatalf("counter series = %+v, want 3 points with a 0 baseline window", cs.Points)
	}
	for _, p := range cs.Points[1:] {
		if p.Val != 3.0 {
			t.Fatalf("counter point %+v, want per-cycle rate 3", p)
		}
	}
	if gs.Interval != 10 {
		t.Fatalf("Interval = %d, want sampler interval 10", gs.Interval)
	}
}

// TestRecorderDownsampleBound drives a long run through a small recorder and
// checks the fixed-memory contract: the point count never exceeds the bound,
// the stride doubles on overflow, and the retained curve still spans the
// whole run.
func TestRecorderDownsampleBound(t *testing.T) {
	const maxPoints = 16
	h := NewHub(1)
	h.EnableRecording(maxPoints)
	v := 0.0
	h.Reg.Gauge("ramp", func() float64 { return v })

	rec := h.rec
	const ticks = 1000
	for cyc := uint64(1); cyc <= ticks; cyc++ {
		v = float64(cyc)
		h.Sample(cyc)
		if n := rec.Len("ramp"); n > maxPoints {
			t.Fatalf("at cycle %d: %d retained points, bound %d", cyc, n, maxPoints)
		}
	}

	var ramp SeriesData
	for _, s := range rec.Series() {
		if s.Name == "ramp" {
			ramp = s
		}
	}
	if ramp.Name == "" {
		t.Fatal("ramp series missing")
	}
	pts := ramp.Points
	if len(pts) > maxPoints || len(pts) < maxPoints/2 {
		t.Fatalf("final point count = %d, want within (%d, %d]", len(pts), maxPoints/2, maxPoints)
	}
	// Stride doubled from 1 to a power of two; the interval reflects it.
	if ramp.Interval == 1 || ramp.Interval&(ramp.Interval-1) != 0 {
		t.Fatalf("Interval = %d, want a power of two > 1", ramp.Interval)
	}
	// The last retained point lands on the final emission boundary, so the
	// series spans the run instead of truncating at the first overflow.
	last := pts[len(pts)-1]
	if last.Cycle < ticks-ramp.Interval {
		t.Fatalf("last point at cycle %d; run ended at %d (interval %d)", last.Cycle, ticks, ramp.Interval)
	}
	// Values are window means of a linear ramp: strictly increasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].Val <= pts[i-1].Val {
			t.Fatalf("downsampled ramp not monotonic at %d: %+v", i, pts[i-1:i+1])
		}
	}
}

// TestRecorderLateRegistration: a counter registered mid-run baselines at
// its current value, so its first window reports the true delta rather than
// a fabricated lifetime spike.
func TestRecorderLateRegistration(t *testing.T) {
	h := NewHub(10)
	h.EnableRecording(0)
	c1 := h.Reg.Counter("early")
	c1.Add(100)
	h.Sample(10)

	late := h.Reg.Counter("late")
	late.Add(1_000_000) // accumulated before the next tick — not a window delta
	late.Add(0)
	h.Sample(20)
	late.Add(50)
	h.Sample(30)

	rec := h.rec
	var lateSeries SeriesData
	for _, s := range rec.Series() {
		if s.Name == "late" {
			lateSeries = s
		}
	}
	// The registration window baselines at the current value (rate 0, not a
	// million-count spike); the +50 window reports the true 5/cycle.
	if len(lateSeries.Points) != 2 {
		t.Fatalf("late series = %+v, want 2 points", lateSeries.Points)
	}
	if lateSeries.Points[0].Val != 0 {
		t.Fatalf("baseline window rate = %v, want 0 (no fabricated spike)", lateSeries.Points[0].Val)
	}
	if lateSeries.Points[1].Val != 5.0 {
		t.Fatalf("post-baseline rate = %v, want 5", lateSeries.Points[1].Val)
	}
}

// TestRecorderDeterminism: two identical runs record byte-identical series.
func TestRecorderDeterminism(t *testing.T) {
	run := func() []RunSeries {
		h := NewHub(10)
		h.EnableRecording(32)
		g := 0.0
		h.Reg.Gauge("g", func() float64 { return g })
		c := h.Reg.Counter("c")
		for cyc := uint64(10); cyc <= 5000; cyc += 10 {
			g = float64(cyc % 97)
			c.Add(cyc % 13)
			h.Sample(cyc)
		}
		return h.RecordedSeries()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs recorded different series")
	}
}

// TestSyncHubRecording: EnableRecording on a hub propagates to forked
// children, and RecordedSeries merges them in (label, seq) order under
// stable run names.
func TestSyncHubRecording(t *testing.T) {
	h := NewHub(10)
	h.EnableRecording(0)

	for _, label := range []string{"beta", "alpha"} {
		child := h.ForRun(label)
		c := child.Reg.Counter("n")
		for cyc := uint64(10); cyc <= 30; cyc += 10 {
			c.Add(10)
			child.Sample(cyc)
		}
	}

	runs := h.RecordedSeries()
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2 (main recorded nothing)", len(runs))
	}
	if runs[0].Run != "alpha#0" || runs[1].Run != "beta#0" {
		t.Fatalf("run order = %s, %s; want alpha#0, beta#0", runs[0].Run, runs[1].Run)
	}
	for _, r := range runs {
		found := false
		for _, s := range r.Series {
			if s.Name == "n" && len(s.Points) == 3 {
				found = true
			}
		}
		if !found {
			t.Fatalf("run %s missing series n: %+v", r.Run, r.Series)
		}
	}
}

// TestWriteSamplesJSONLMatchesRecordedSeries: the -metrics-out JSONL is the
// recorder's series regrouped into cycle rows, point for point — across the
// hub's own run and forked children, through downsampling, and with a
// metric registered mid-run whose points fall on other cycles.
func TestWriteSamplesJSONLMatchesRecordedSeries(t *testing.T) {
	h := NewHub(10)
	h.EnableRecording(16)
	drive := func(hub *Hub, ticks int) {
		g := 0.0
		hub.Reg.Gauge("q.occ", func() float64 { return g })
		c := hub.Reg.Counter("bytes")
		for i := 1; i <= ticks; i++ {
			if i == ticks/3 {
				hub.Reg.Rate("late.reqs").Add(7)
			}
			g = float64(i % 7)
			c.Add(uint64(i))
			hub.Sample(uint64(10 * i))
		}
	}
	drive(h, 50)
	drive(h.ForRun("b"), 301)
	drive(h.ForRun("a"), 77)

	type key struct {
		run, metric string
		cycle       uint64
	}
	want := map[key]float64{}
	for _, r := range h.RecordedSeries() {
		for _, s := range r.Series {
			for _, p := range s.Points {
				want[key{r.Run, s.Name, p.Cycle}] = p.Val
			}
		}
	}
	var b bytes.Buffer
	if err := h.WriteSamplesJSONL(&b); err != nil {
		t.Fatal(err)
	}
	got := map[key]float64{}
	var lastRun string
	var lastCycle uint64
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		var row struct {
			Run     string             `json:"run"`
			Cycle   uint64             `json:"cycle"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		if row.Run == lastRun && row.Cycle <= lastCycle {
			t.Fatalf("run %s: cycle %d after %d, want strictly increasing rows", row.Run, row.Cycle, lastCycle)
		}
		lastRun, lastCycle = row.Run, row.Cycle
		for name, v := range row.Metrics {
			k := key{row.Run, name, row.Cycle}
			if _, dup := got[k]; dup {
				t.Fatalf("point %+v written twice", k)
			}
			got[k] = v
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONL holds %d points, RecordedSeries %d; they differ", len(got), len(want))
	}
}

// TestRecorderTickZeroAllocs is the acceptance guard: once the metric cache
// is warm, a probe tick through the hub's per-tick entry point (Hub.Sample)
// must allocate nothing — on a hub used directly and on a forked run hub,
// with recording on and off — because it rides the engine hot path.
func TestRecorderTickZeroAllocs(t *testing.T) {
	root := NewHub(10)
	root.EnableRecording(64)
	for _, h := range []*Hub{root, root.ForRun("run"), NewHub(10)} {
		g := 0.0
		h.Reg.Gauge("unit.occupancy", func() float64 { return g })
		c := h.Reg.Counter("unit.ops")
		h.Reg.CounterFunc("unit.derived", func() uint64 { return c.Value() * 2 })

		cyc := uint64(0)
		tick := func() {
			cyc += 10
			g = float64(cyc % 31)
			c.Add(3)
			h.Sample(cyc)
		}
		tick() // warm the caches (first tick refreshes metric tables)

		// Spans emission ticks and in-place downsampling, not just accumulation.
		if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
			t.Fatalf("Hub.Sample (recording %v) = %.1f allocs/tick, want 0", h.rec != nil, allocs)
		}
	}
}

// BenchmarkRecorderTick measures the recording probe tick (and doubles as
// the zero-alloc guard under -benchmem).
func BenchmarkRecorderTick(b *testing.B) {
	h := NewHub(10)
	h.EnableRecording(DefaultRecorderPoints)
	g := 0.0
	h.Reg.Gauge("unit.occupancy", func() float64 { return g })
	c := h.Reg.Counter("unit.ops")
	h.Sample(10)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = float64(i)
		c.Add(1)
		h.Sample(uint64(20 + 10*i))
	}
}
