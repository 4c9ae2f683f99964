package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/experiments"
)

const specPath = "../BENCHMARK.json"

// buildServe builds hwgc-serve from the repository root for the serve
// workload.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hwgc-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hwgc-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build hwgc-serve: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeWorkloads runs every workload at tiny scale, untraced and then
// traced in the same output directory, so the traced run's simulated
// results are checked against the untraced run's recorded digest.
func TestSmokeWorkloads(t *testing.T) {
	serveBin := buildServe(t)
	for _, name := range []string{"suite", "gc-unit", "serve"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				p := params{seed: 3, seconds: time.Second, trace: traced, tiny: true,
					outDir: dir, serve: serveBin}
				res, err := run(name, specPath, p)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d",
						traced, res.Correct, res.Failed, res.Attempted)
				}
				want, err := loadSpec(specPath, traced)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics printed, spec names %d", traced, len(res.Metrics), len(want))
				}
				for _, w := range want {
					m, ok := res.Metrics[w.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s not printed", traced, w.Name)
					case m.Unit != w.Unit:
						t.Errorf("traced=%v: %s unit %q, spec %q", traced, w.Name, m.Unit, w.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("%s = %v; end-to-end metrics are never 0", w.Name, m.Value)
					}
				}
			}
		})
	}
}

// TestTamperedReportFails feeds responses whose report or cache status
// was altered and checks that each counts as a failed operation.
func TestTamperedReportFails(t *testing.T) {
	report := json.RawMessage(`{"ID":"table1","Rows":["a"]}`)
	primed := map[string][]byte{"table1": report}
	good := reply{cell: cell{exp: "table1", seed: 1},
		view: jobView{State: "succeeded", CacheHit: true, Report: report}}

	tamperedReport := good
	tamperedReport.view.Report = json.RawMessage(`{"ID":"table1","Rows":["b"]}`)
	wrongCache := good
	wrongCache.view.CacheHit = false
	failedJob := good
	failedJob.view.State = "failed"

	var out outcome
	out.check(checkReply(good, primed))
	if out.failed != 0 {
		t.Fatalf("untampered reply counted as failure")
	}
	for _, r := range []reply{tamperedReport, wrongCache, failedJob} {
		out.check(checkReply(r, primed))
	}
	if out.attempted != 4 || out.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3", out.attempted, out.failed)
	}

	// A suite cell served with different bytes, and a suite whose digest
	// differs from the one recorded at the same seed.
	rep := hwgcReport("fig22", "row")
	want, err := experiments.EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReport(hwgcReport("fig22", "tampered"), want); err == nil {
		t.Error("tampered suite report accepted")
	}
	p := params{seed: 9, outDir: t.TempDir()}
	if err := checkRecorded(p, "suite", "aaaa"); err != nil {
		t.Fatalf("first digest: %v", err)
	}
	if err := checkRecorded(p, "suite", "aaaa"); err != nil {
		t.Errorf("same digest rejected: %v", err)
	}
	if err := checkRecorded(p, "suite", "bbbb"); err == nil {
		t.Error("differing digest accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hwgc/internal/core.(*HW).RunMark":                                            "core",
		"hwgc/internal/sim.(*Queue[go.shape.struct { A hwgc/internal/dram.x }]).Push": "sim",
		"internal/runtime/maps.(*Map).getWithKey":                                     "runtime",
		"runtime.mallocgc":                    "runtime",
		"encoding/json.(*decodeState).object": "std",
		"main.tracedCollection":               "perfbench",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40ms (4.00%)
-----------+-------------------------------------------------------
     phase:  churn
      10ms   internal/runtime/maps.h2 (inline)
             runtime.mapaccess1_fast64
             hwgc/internal/workload.(*App).Churn
-----------+-------------------------------------------------------
     phase:  mark
      20ms   hwgc/internal/sim.(*Engine).Step
             hwgc/internal/core.(*HW).RunMark
-----------+-------------------------------------------------------
      10ms   main.main
             runtime.main
-----------+-------------------------------------------------------
`
	got := parseTraces(text)
	want := hostShares{
		"churn": {"runtime": 0.25},
		"mark":  {"sim": 0.5},
		"":      {"perfbench": 0.25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
}

func hwgcReport(id, row string) hwgc.Report { return hwgc.Report{ID: id, Rows: []string{row}} }
