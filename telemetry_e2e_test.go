package hwgc

import (
	"bytes"
	"strings"
	"testing"
)

// runInstrumented executes one small hardware collection with a fully
// enabled telemetry hub and returns the hub plus its serialized outputs.
func runInstrumented(t *testing.T) (*Telemetry, string, string, string) {
	t.Helper()
	cfg := ScaledConfig()
	spec, _ := Benchmark("avrora")
	spec.LiveObjects /= 8
	tel := NewTelemetry(256)
	tel.EnableTrace()
	tel.EnableRecording(0)
	if _, err := RunInstrumented(cfg, spec, HWCollector, 1, 7, tel); err != nil {
		t.Fatal(err)
	}
	var metrics, trace, summary bytes.Buffer
	if err := tel.WriteSamplesJSONL(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := tel.Trace.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	if err := tel.Reg.WriteSummary(&summary); err != nil {
		t.Fatal(err)
	}
	return tel, metrics.String(), trace.String(), summary.String()
}

// TestTelemetryEndToEnd runs a real collection with telemetry attached and
// checks the key metrics are populated and the trace covers the simulated
// units.
func TestTelemetryEndToEnd(t *testing.T) {
	tel, metrics, trace, summary := runInstrumented(t)

	for _, name := range []string{
		"tracer.marker.marks",
		"tracer.tracer.chunkreqs",
		"tilelink.grants",
		"dram.accesses",
		"sweep.blocksswept",
		"tracer.walker.walks",
	} {
		v, ok := tel.Reg.Value(name)
		if !ok {
			t.Errorf("metric %s not registered", name)
		} else if v == 0 {
			t.Errorf("metric %s = 0 after a collection", name)
		}
	}
	if v, _ := tel.Reg.Value("telemetry.sampler.samples"); v == 0 {
		t.Fatal("probe never ticked")
	}
	occupancy := false
	for _, run := range tel.RecordedSeries() {
		for _, s := range run.Series {
			occupancy = occupancy || (s.Name == "tracer.markqueue.occupancy" && len(s.Points) > 0)
		}
	}
	if !occupancy {
		t.Fatal("no mark-queue occupancy series")
	}

	// The trace must carry spans from at least four distinct units.
	units := tel.Trace.Units()
	if len(units) < 4 {
		t.Fatalf("trace covers %d units (%v), want >= 4", len(units), units)
	}
	for _, want := range []string{"tilelink", "dram", "tracer.marker", "core"} {
		found := false
		for _, u := range units {
			if u == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no trace events from unit %s (have %v)", want, units)
		}
	}

	if !strings.Contains(metrics, "tracer.markqueue.occupancy") {
		t.Error("metrics JSONL missing mark-queue occupancy")
	}
	if !strings.Contains(metrics, "dram.bank0.openrow") {
		t.Error("metrics JSONL missing DRAM bank state")
	}
	if !strings.Contains(trace, `"ph":"X"`) {
		t.Error("Chrome trace has no spans")
	}
	if !strings.Contains(summary, "tracer.marker.latency") {
		t.Error("summary missing marker latency histogram")
	}
}

// TestTelemetryDeterministic checks that two identical instrumented runs
// produce byte-identical metric, trace, and summary output.
func TestTelemetryDeterministic(t *testing.T) {
	_, m1, t1, s1 := runInstrumented(t)
	_, m2, t2, s2 := runInstrumented(t)
	if m1 != m2 {
		t.Error("metric time series differ between identical runs")
	}
	if t1 != t2 {
		t.Error("trace output differs between identical runs")
	}
	if s1 != s2 {
		t.Error("summary output differs between identical runs")
	}
}

// TestTelemetryDoesNotPerturbTiming checks the engine-probe guarantee: a
// run with full telemetry attached reports exactly the cycle counts of an
// uninstrumented run.
func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	cfg := ScaledConfig()
	spec, _ := Benchmark("avrora")
	spec.LiveObjects /= 8
	plain, err := Run(cfg, spec, HWCollector, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(64)
	tel.EnableTrace()
	inst, err := RunInstrumented(cfg, spec, HWCollector, 1, 7, tel)
	if err != nil {
		t.Fatal(err)
	}
	p, q := plain.GCs[0], inst.GCs[0]
	if p.MarkCycles != q.MarkCycles || p.SweepCycles != q.SweepCycles {
		t.Fatalf("telemetry perturbed timing: plain mark=%d sweep=%d, instrumented mark=%d sweep=%d",
			p.MarkCycles, p.SweepCycles, q.MarkCycles, q.SweepCycles)
	}
}
