package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Distribution edge cases: empty, single-observation, and all-equal inputs
// are exactly the shapes a mostly-idle service histogram takes, so their
// quantiles must be sane, not accidental.

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	var single Histogram
	single.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := single.Quantile(q)
		// One observation in bucket (32, 64], clamped to max=42: every
		// quantile must land inside the bucket and never above the max.
		if got <= 0 || got > 42 {
			t.Errorf("single.Quantile(%v) = %v, want in (0, 42]", q, got)
		}
	}
	if got := single.Quantile(1); got != 42 {
		t.Errorf("single.Quantile(1) = %v, want the max 42", got)
	}

	var equal Histogram
	for i := 0; i < 100; i++ {
		equal.Observe(7)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := equal.Quantile(q)
		// All mass at 7, bucket (4, 8] clamped to max 7.
		if got <= 4 || got > 7 {
			t.Errorf("all-equal Quantile(%v) = %v, want in (4, 7]", q, got)
		}
	}
	if equal.Mean() != 7 {
		t.Errorf("all-equal Mean = %v, want 7", equal.Mean())
	}
}

func TestSampleQuantileAndCDFEdgeCases(t *testing.T) {
	var empty Sample
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Sample.Quantile = %v, want 0", got)
	}
	if cdf := empty.CDF(); len(cdf) != 0 {
		t.Errorf("empty Sample.CDF = %v, want empty", cdf)
	}

	var single Sample
	single.Observe(3.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := single.Quantile(q); got != 3.5 {
			t.Errorf("single Sample.Quantile(%v) = %v, want 3.5", q, got)
		}
	}
	cdf := single.CDF()
	if len(cdf) != 1 || cdf[0].Value != 3.5 || cdf[0].Fraction != 1 {
		t.Errorf("single Sample.CDF = %v, want [{3.5 1}]", cdf)
	}

	var equal Sample
	for i := 0; i < 5; i++ {
		equal.Observe(2)
	}
	if got := equal.Quantile(0.99); got != 2 {
		t.Errorf("all-equal Sample.Quantile = %v, want 2", got)
	}
	cdf = equal.CDF()
	if len(cdf) != 5 {
		t.Fatalf("all-equal CDF has %d points, want 5", len(cdf))
	}
	for i, p := range cdf {
		wantFrac := float64(i+1) / 5
		if p.Value != 2 || p.Fraction != wantFrac {
			t.Errorf("CDF[%d] = %+v, want {2 %v}", i, p, wantFrac)
		}
	}
	if last := cdf[len(cdf)-1].Fraction; last != 1 {
		t.Errorf("CDF must end at fraction 1, got %v", last)
	}
}

// TestSyncHubSnapshotDeterministicUnderConcurrentForks drives a hub the
// way a parallel fleet does — N goroutines forking
// children and recording concurrently — and asserts the folded snapshot is
// byte-identical to a serial run's. Run under -race this also proves the
// fork/fold paths are race-free.
func TestSyncHubSnapshotDeterministicUnderConcurrentForks(t *testing.T) {
	const runs = 16
	record := func(h *Hub, i int) {
		child := h.ForRun(fmt.Sprintf("run%d", i%4)) // labels shared across runs
		child.Reg.Counter("unit.marks").Add(uint64(100 + i))
		child.Reg.Histogram("unit.latency").Observe(uint64(1 << (i % 8)))
		child.Reg.Rate("unit.reqs").Add(uint64(i))
		n := uint64(i)
		child.Reg.CounterFunc("unit.cfn", func() uint64 { return n })
	}
	summary := func(parallel bool) string {
		h := NewHub(0)
		if parallel {
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					record(h, i)
				}(i)
			}
			wg.Wait()
		} else {
			for i := 0; i < runs; i++ {
				record(h, i)
			}
		}
		var b bytes.Buffer
		if err := h.WriteSummary(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := summary(false)
	for trial := 0; trial < 4; trial++ {
		if got := summary(true); got != serial {
			t.Fatalf("trial %d: concurrent snapshot differs from serial\nserial:\n%s\nconcurrent:\n%s",
				trial, serial, got)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	h := NewHub(0)
	h.Reg.Counter("service.jobs.completed").Add(3)
	h.Reg.Gauge("service.queue.depth", func() float64 { return 2 })
	child := h.ForRun("x")
	child.Reg.Histogram("job.latency_us").Observe(100)
	child.Reg.Histogram("job.latency_us").Observe(200)

	var b bytes.Buffer
	if err := h.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE hwgc_service_jobs_completed counter\nhwgc_service_jobs_completed 3\n",
		"# TYPE hwgc_service_queue_depth gauge\nhwgc_service_queue_depth 2\n",
		"# TYPE hwgc_job_latency_us summary\n",
		`hwgc_job_latency_us{quantile="0.5"}`,
		"hwgc_job_latency_us_sum 300\n",
		"hwgc_job_latency_us_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every family leads with a HELP line, immediately followed by its TYPE
	// line for the same sanitized name.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	helps, types := 0, 0
	for i, line := range lines {
		if strings.HasPrefix(line, "# HELP ") {
			helps++
			name := strings.Fields(line)[2]
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Errorf("HELP for %s not followed by its TYPE line", name)
			}
		}
		if strings.HasPrefix(line, "# TYPE ") {
			types++
		}
	}
	if helps == 0 || helps != types {
		t.Errorf("%d HELP lines for %d TYPE lines; want one per family", helps, types)
	}
	// Every non-comment line is "name value" or "name{quantile=...} value"
	// with a sanitized name.
	for _, line := range lines {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !strings.HasPrefix(line, "hwgc_") || len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Nil hubs and registries stay silent rather than panicking.
	var nilHub *Hub
	if err := nilHub.WritePrometheus(&b); err != nil {
		t.Errorf("nil hub WritePrometheus: %v", err)
	}
}

func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"service.queue.depth": "hwgc_service_queue_depth",
		"a-b/c d":             "hwgc_a_b_c_d",
		"Already_OK9":         "hwgc_Already_OK9",
		"9starts.with.digit":  "hwgc_9starts_with_digit", // prefix satisfies the first-char rule
		"name{label=\"x\"}":   "hwgc_name_label__x__",
	}
	for in, want := range cases {
		if got := PrometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusHostileNames: a registry name full of exposition
// metacharacters (newlines, backslashes, braces) must neither break the
// line-oriented format nor leak unescaped into HELP text.
func TestWritePrometheusHostileNames(t *testing.T) {
	h := NewHub(0)
	h.Reg.Counter("evil\nname{with=\"quotes\"}\\and\\slashes").Add(1)

	var b bytes.Buffer
	if err := h.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `evil\nname`) {
		t.Errorf("HELP text newline not escaped:\n%s", out)
	}
	if !strings.Contains(out, `\\and\\slashes`) {
		t.Errorf("HELP text backslash not escaped:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "# ") && !strings.HasPrefix(line, "hwgc_") {
			t.Errorf("raw metric name leaked into exposition line %q", line)
		}
		// The sanitized sample line must carry only grammar-legal runes.
		if strings.HasPrefix(line, "hwgc_") {
			name := strings.Fields(line)[0]
			for _, c := range name {
				legal := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
				if !legal {
					t.Errorf("illegal rune %q in sanitized name %q", c, name)
				}
			}
		}
	}
}

// Satellite: the tracer's drop counter and the probe's tick count are
// registry metrics, so truncated traces and silent probes show up in every
// summary and on /metrics.
func TestTracerAndSamplerSelfMetrics(t *testing.T) {
	h := NewHub(0)
	if v, ok := h.Reg.Value("telemetry.sampler.samples"); !ok || v != 0 {
		t.Fatalf("sampler.samples = %v,%v want 0,true", v, ok)
	}
	tr := h.EnableTrace()
	tr.MaxEvents = 100
	for i := 0; i < 110; i++ {
		tr.Instant("unit", "e", uint64(i))
	}
	if v, _ := h.Reg.Value("telemetry.trace.events"); v != 100 {
		t.Errorf("trace.events = %v, want 100", v)
	}
	if v, _ := h.Reg.Value("telemetry.trace.dropped"); v != 10 {
		t.Errorf("trace.dropped = %v, want 10", v)
	}
}
