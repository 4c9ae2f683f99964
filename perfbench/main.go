// Command perfbench is the repository benchmark. It runs one workload for
// about --seconds seconds and prints, as the last line of standard output,
// one JSON object with the run's correctness, operation counts and metrics.
// run.py builds it and runs it from the repository root:
//
//	python3 perfbench/run.py --workload suite   --seed 42 --seconds 24 --trace 0
//	python3 perfbench/run.py --workload gc-unit --seed 42 --seconds 24 --trace 1
//
// With --trace 0 it prints the end-to-end metrics named in BENCHMARK.json;
// with --trace 1 it runs the same workload with spans around each layer's
// calls, writes the spans and a CPU profile under --out, and prints the
// per-layer metrics. README.md describes the workloads and what each
// metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// params are the inputs every workload receives.
type params struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	tiny     bool      // smoke-test scale: same code paths, a fraction of the work
	outDir   string    // spans, profiles and recorded digests
	serve    string    // hwgc-serve binary (serve workload)
	launched time.Time // when the benchmark process was started
}

// processStart stands in for the launch time when the launcher gives none
// (tests); it is taken after every imported package has been initialized.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back: its metrics (a superset of what
// the spec names is fine) and its correctness tally.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one operation and, when err is non-nil, one failure; the
// failure is also reported on standard error.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(params) (outcome, error){
	"suite":   runSuite,
	"gc-unit": runGCUnit,
	"serve":   runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: suite, gc-unit or serve")
		seed    = flag.Uint64("seed", 42, "workload seed (inputs are a pure function of it)")
		seconds = flag.Int("seconds", 20, "measurement time; passes repeat until it has elapsed")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for spans and profiles")
		serve   = flag.String("serve-bin", ".bench_build/bin/hwgc-serve", "hwgc-serve binary")
		launch  = flag.Int64("launched-ns", 0, "Unix time in ns at which the launcher started this process")
	)
	flag.Parse()
	var launched time.Time
	if *launch > 0 {
		launched = time.Unix(0, *launch)
	}
	res, err := run(*name, *spec, params{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		outDir: *outDir, serve: *serve, launched: launched,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and shapes its outcome into the result line.
func run(name, specPath string, p params) (result, error) {
	fn, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	if p.launched.IsZero() {
		p.launched = processStart
	}
	want, err := loadSpec(specPath, p.trace)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return result{}, err
	}
	out, err := fn(p)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	metrics, err := selectMetrics(out.metrics, want, p.trace)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	if out.attempted < 1 {
		return result{}, errors.New(name + ": no operations attempted")
	}
	return result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: metrics}, nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec returns the metrics a run must print: the end-to-end list, or
// the per-layer list for a traced run.
func loadSpec(path string, traced bool) ([]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// selectMetrics keeps exactly the metrics the spec names. Every workload
// must measure every end-to-end metric. A per-layer metric of a layer the
// workload does not reach is printed as 0 (README.md lists which layers
// each workload observes). A unit that disagrees with the spec is a bug.
func selectMetrics(got map[string]metric, want []specMetric, traced bool) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	var missing []string
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case ok && m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %q, spec says %q", w.Name, m.Unit, w.Unit)
		case ok:
			out[w.Name] = m
		case traced:
			out[w.Name] = metric{Value: 0, Unit: w.Unit}
		default:
			missing = append(missing, w.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("end-to-end metrics not measured: %v", missing)
	}
	return out, nil
}
