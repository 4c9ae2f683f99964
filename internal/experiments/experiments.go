// Package experiments contains one runner per table and figure in the
// paper's evaluation (Section II motivation and Section VI). Each runner
// regenerates the corresponding result from the simulator — the same rows
// or series the paper reports — and annotates it with the paper's value so
// EXPERIMENTS.md can record paper-vs-measured for every experiment.
package experiments

import (
	"fmt"
	"strings"

	"hwgc/internal/core"
	"hwgc/internal/telemetry"
	"hwgc/internal/workload"
)

// Options control experiment scale.
type Options struct {
	// GCs is the number of collections averaged per benchmark.
	GCs int
	// Seed drives all workload construction.
	Seed uint64
	// Quick shrinks the workloads ~4x (used by tests and smoke runs;
	// ratios hold, absolute times shrink).
	Quick bool
	// Shrink divides workload sizes by an extra factor on top of Quick
	// (<= 1 means none). Used by determinism tests and host benchmarks
	// that only need stable — not paper-calibrated — results.
	Shrink int
	// Parallel caps how many simulation cells an experiment may run
	// concurrently (<= 1 means serial, 0 is treated as serial here; the
	// fleet runner resolves 0 to GOMAXPROCS before fan-out). Every cell
	// owns its engine, heap, and RNG, and cell results are reassembled in
	// canonical order, so reports are byte-identical at any width — which
	// is why the field is excluded from result-cache keys (cachekey tag).
	Parallel int `cachekey:"-"`
	// Beat, when non-nil, receives a live cycles-simulated heartbeat from
	// every system the experiment builds (the service's job-progress
	// endpoint reads it while the run is in flight). It never affects
	// results, so it is excluded from cache keys and JSON.
	Beat *telemetry.Beat `json:"-" cachekey:"-"`
	// Tel, when non-nil, instruments every system the experiment builds:
	// each runner forks a private child hub (Hub.ForRun), so instrumented
	// fleets keep their full parallel width. It never affects results, so
	// it is excluded from cache keys and JSON.
	Tel *telemetry.Hub `json:"-" cachekey:"-"`
}

// DefaultOptions returns the full-scale settings used for EXPERIMENTS.md.
func DefaultOptions() Options { return Options{GCs: 2, Seed: 42} }

// QuickOptions returns reduced-scale settings for tests.
func QuickOptions() Options { return Options{GCs: 1, Seed: 42, Quick: true} }

// ScaledConfig returns the experiment system configuration: the paper's
// Table I plus the baseline unit, with the unit's translation reach (PTW
// cache, shared L2 TLB) scaled proportionally to the 1:10 heap scale so
// that TLB/PTW pressure — the paper's main unit bottleneck — is preserved.
func ScaledConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.System.Heap.MarkSweepBytes = 20 << 20 // 1:10 of the paper's 200 MB
	cfg.Unit.PTWCacheBytes = 2 << 10
	cfg.Unit.L2TLBEntries = 64
	return cfg
}

// config returns ScaledConfig with the run-scoped plumbing applied: the
// options' progress heartbeat and telemetry hub ride along into every
// system a runner builds. Runners construct their configs through this so a
// served job's /v1/jobs/{id}/progress counter advances, and every cell is
// instrumented, no matter which cells the experiment fans out.
func (o Options) config() core.Config {
	cfg := ScaledConfig()
	cfg.Beat = o.Beat
	cfg.Tel = o.Tel
	return cfg
}

// specs returns the benchmark list at the requested scale.
func specs(o Options) []workload.Spec {
	out := workload.DaCapo()
	if o.Quick {
		for i := range out {
			out[i].LiveObjects /= 6
			out[i].Roots /= 3
			if out[i].HotObjects > 16 {
				out[i].HotObjects /= 2
			}
		}
	}
	if o.Shrink > 1 {
		for i := range out {
			out[i] = shrinkSpec(out[i], o.Shrink)
		}
	}
	return out
}

// benchSpec returns the named benchmark at o's scale, applying the
// single-benchmark Quick convention (live set / 4) plus any extra Shrink.
func benchSpec(o Options, name string) workload.Spec {
	spec, _ := workload.ByName(name)
	if o.Quick {
		spec.LiveObjects /= 4
	}
	if o.Shrink > 1 {
		spec = shrinkSpec(spec, o.Shrink)
	}
	return spec
}

// shrinkSpec divides a spec's live set and roots by n with floors that keep
// the workload well-formed (population and root scan still exercise every
// phase).
func shrinkSpec(spec workload.Spec, n int) workload.Spec {
	if spec.LiveObjects /= n; spec.LiveObjects < 256 {
		spec.LiveObjects = 256
	}
	if spec.Roots /= n; spec.Roots < 16 {
		spec.Roots = 16
	}
	if spec.HotObjects > spec.LiveObjects/8 {
		spec.HotObjects = spec.LiveObjects / 8
	}
	return spec
}

// Report is one experiment's regenerated result. Rows and Notes carry the
// human-readable table; Metrics carries the same headline numbers under
// stable machine-readable names, which is what the run ledger records and
// the regression sentinel checks against the EXPERIMENTS.md tolerance
// bands (see expect.go).
type Report struct {
	ID      string
	Title   string
	Rows    []string
	Notes   []string
	Metrics map[string]float64 `json:",omitempty"`
}

// Rowf appends a formatted row.
func (r *Report) Rowf(format string, args ...interface{}) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

// Notef appends a formatted paper-comparison note.
func (r *Report) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Metric records a headline scalar under a stable name. JSON encoding
// sorts map keys, so reports with metrics stay byte-identical across
// widths and processes.
func (r *Report) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  # %s\n", n)
	}
	return b.String()
}

// Runner regenerates one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(o Options) (Report, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig1a", "CPU time spent in GC pauses", Fig1a},
		{"fig1b", "Query latency CDF under GC (lusearch)", Fig1b},
		{"table1", "System configuration", TableI},
		{"fig15", "GC unit vs CPU: mark and sweep time", Fig15},
		{"fig16", "Memory bandwidth during the last avrora pause", Fig16},
		{"fig17", "Performance with 1-cycle / 8 GB/s memory", Fig17},
		{"fig18", "Shared-cache contention and partitioning", Fig18},
		{"fig19", "Mark queue size, spilling and compression", Fig19},
		{"fig20", "Block sweeper scaling", Fig20},
		{"fig21", "Mark access skew and mark-bit cache", Fig21},
		{"fig22", "Area breakdown", Fig22},
		{"fig23", "Power and energy", Fig23},
		{"abl-mas", "Ablation: memory scheduler sensitivity", AblMAS},
		{"abl-layout", "Ablation: object layout", AblLayout},
		{"abl-barriers", "Ablation: read-barrier designs", AblBarriers},
		{"abl-throttle", "Ablation: bandwidth throttling", AblThrottle},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
