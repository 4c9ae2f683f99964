package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterRateNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var r *Rate
	r.Inc()
	r.Add(5)
	if r.Value() != 0 {
		t.Fatalf("nil rate value = %d", r.Value())
	}
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded something")
	}
	var tr *Tracer
	tr.Complete("u", "n", 0, 1)
	tr.Complete1("u", "n", 0, 1, "k", 1)
	tr.Instant("u", "n", 0)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Histogram("y").Observe(1)
	reg.Rate("z").Add(2)
	reg.Gauge("g", func() float64 { return 1 })
	reg.CounterFunc("c", func() uint64 { return 1 })
	if reg.Names() != nil {
		t.Fatal("nil registry has names")
	}
	if err := reg.WriteSummary(os.NewFile(0, "")); err != nil {
		t.Fatal(err)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21}, {1 << 63, 63}, {1<<63 + 1, 64},
	}
	for _, c := range cases {
		if got := log2ceil(c.v); got != c.want {
			t.Errorf("log2ceil(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestHistogramQuantileUniform checks the interpolated quantiles on the
// uniform distribution 1..100, where the bucket interpolation is exact:
// p50 = 50, p90 = 90, p99 = 99.
func TestHistogramQuantileUniform(t *testing.T) {
	h := &Histogram{}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Max() != 100 || h.Sum() != 5050 {
		t.Fatalf("count=%d max=%d sum=%d", h.Count(), h.Max(), h.Sum())
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1.0, 100},
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if m := h.Mean(); m != 50.5 {
		t.Errorf("Mean = %g, want 50.5", m)
	}
}

// TestHistogramQuantileClamp checks that the top bucket clamps to the
// observed max: a single observation's every quantile is that value.
func TestHistogramQuantileClamp(t *testing.T) {
	h := &Histogram{}
	h.Observe(100)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("Quantile(%g) = %g, want 100", q, got)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("unit.requests")
	b := reg.Counter("unit.requests")
	if a != b {
		t.Fatal("re-registering a counter must return the same instance")
	}
	if h1, h2 := reg.Histogram("unit.lat"), reg.Histogram("unit.lat"); h1 != h2 {
		t.Fatal("re-registering a histogram must return the same instance")
	}
	if r1, r2 := reg.Rate("unit.rate"), reg.Rate("unit.rate"); r1 != r2 {
		t.Fatal("re-registering a rate must return the same instance")
	}
	// Gauge re-registration replaces the callback (latest system wins).
	reg.Gauge("unit.occ", func() float64 { return 1 })
	reg.Gauge("unit.occ", func() float64 { return 2 })
	if v, ok := reg.Value("unit.occ"); !ok || v != 2 {
		t.Fatalf("gauge value = %v, %v; want 2", v, ok)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("registering a gauge over a counter must panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "already registered as counter") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	reg.Gauge("x", func() float64 { return 0 })
}

func TestRegistrySubScope(t *testing.T) {
	reg := NewRegistry()
	s := reg.Sub("dram").Sub("bank3")
	s.Counter("rowconflicts").Add(7)
	if v, ok := reg.Value("dram.bank3.rowconflicts"); !ok || v != 7 {
		t.Fatalf("scoped counter = %v, %v", v, ok)
	}
}

func TestRegistrySummaryDeterministic(t *testing.T) {
	build := func() string {
		reg := NewRegistry()
		reg.Counter("b.count").Add(3)
		reg.Gauge("a.gauge", func() float64 { return 1.5 })
		h := reg.Histogram("c.hist")
		for v := uint64(1); v <= 100; v++ {
			h.Observe(v)
		}
		var buf bytes.Buffer
		if err := reg.WriteSummary(&buf); err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := reg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return buf.String() + js.String()
	}
	if build() != build() {
		t.Fatal("summary output is not deterministic")
	}
	out := build()
	for _, want := range []string{"a.gauge", "b.count", "p50=50 p90=90 p99=99 max=100"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// goldenTracer records a small fixed event set covering every emit arity.
func goldenTracer() *Tracer {
	tr := NewTracer()
	tr.Complete("tracer.marker", "mark-new", 100, 148)
	tr.Complete1("tilelink", "grant:marker", 110, 112, "bytes", 8)
	tr.Complete2("dram", "req-rowhit", 120, 155, "bank", 3, "bytes", 64)
	tr.Complete3("sweep.sweep0", "sweep-block", 0, 900, "block", 1, "cells", 32, "live", 7)
	tr.Instant("core", "phase-start", 90)
	tr.Instant1("tracer.markq", "spill-write", 300, "entries", 8)
	tr.Instant2("concurrent", "slice", 5, "marked", 40, "frontier", 12)
	return tr
}

// TestChromeTraceGolden locks the Chrome trace_event serialization against
// testdata/chrome_trace.golden and verifies the output is valid JSON with
// the structure the viewers expect.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace output drifted from %s:\n--- got ---\n%s", golden, buf.String())
	}

	// Round-trip: the file must parse as JSON and carry the right shape.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   *uint64        `json:"ts"`
			Dur  *uint64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			DroppedEvents uint64 `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	var meta, spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if e.Ts == nil || e.Dur == nil {
				t.Errorf("span %q missing ts/dur", e.Name)
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 7 || spans != 4 || instants != 3 {
		t.Fatalf("meta=%d spans=%d instants=%d, want 7/4/3", meta, spans, instants)
	}
	// Spot-check an annotated span survived with its args.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Name == "req-rowhit" && e.Args["bank"] == float64(3) && e.Args["bytes"] == float64(64) {
			found = true
		}
	}
	if !found {
		t.Fatal("req-rowhit args lost in serialization")
	}
}

func TestTracerJSONLValid(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("lines = %d, want 7", len(lines))
	}
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("invalid JSONL %q: %v", line, err)
		}
	}
}

func TestTracerDropsAtCap(t *testing.T) {
	tr := NewTracer()
	tr.MaxEvents = 4
	for i := 0; i < 10; i++ {
		tr.Instant("u", "e", uint64(i))
	}
	if len(tr.Events()) != 4 || tr.Dropped() != 6 {
		t.Fatalf("events=%d dropped=%d, want 4/6", len(tr.Events()), tr.Dropped())
	}
}

func TestTracerTrackOrder(t *testing.T) {
	tr := goldenTracer()
	units := tr.Units()
	want := []string{"tracer.marker", "tilelink", "dram", "sweep.sweep0", "core", "tracer.markq", "concurrent"}
	if len(units) != len(want) {
		t.Fatalf("units = %v", units)
	}
	for i := range want {
		if units[i] != want[i] {
			t.Fatalf("units = %v, want %v", units, want)
		}
	}
}

func TestHubNilSafety(t *testing.T) {
	var h *Hub
	if h.Tracer() != nil || h.Registry() != nil {
		t.Fatal("nil hub must return nil surfaces")
	}
	hub := NewHub(0)
	if hub.Tracer() != nil {
		t.Fatal("tracing must be off until EnableTrace")
	}
	if hub.EnableTrace() == nil || hub.Tracer() == nil {
		t.Fatal("EnableTrace must install a tracer")
	}
	if hub.SampleEvery() != 1024 {
		t.Fatalf("default sample interval = %d, want 1024", hub.SampleEvery())
	}
	h.Sample(1) // a nil hub's probe entry point is a no-op
	if h.ForRun("x") != nil || h.Snapshot() != nil || h.RecordedSeries() != nil {
		t.Fatal("nil hub must fork and aggregate to nil")
	}
}
