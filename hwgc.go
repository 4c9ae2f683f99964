// Package hwgc is a software reproduction of "A Hardware Accelerator for
// Tracing Garbage Collection" (Maas, Asanović, Kubiatowicz — ISCA 2018): a
// cycle-approximate simulator of the paper's GC accelerator — a Traversal
// Unit (decoupled marker/tracer with a spilling mark queue) and a
// Reclamation Unit (parallel block sweepers) attached to a TileLink-style
// interconnect over a DDR3 timing model — together with the substrate it
// needs: a JikesRVM-style heap with the bidirectional object layout, page
// tables and TLBs, an in-order CPU baseline running software Mark & Sweep,
// and DaCapo-like workload generators.
//
// This package is the public facade: build a configuration, pick a
// benchmark, and compare the hardware collector against the CPU baseline,
// or regenerate any of the paper's evaluation figures.
//
//	cfg := hwgc.ScaledConfig()
//	spec, _ := hwgc.Benchmark("avrora")
//	sw, hw, _ := hwgc.Compare(cfg, spec, 3, 42)
//	fmt.Printf("mark speedup: %.2fx\n",
//	    float64(sw.MarkCycles)/float64(hw.MarkCycles))
//
// Both collectors are functional: they mark real status words and rebuild
// real free lists in the simulated physical memory, and are cross-checked
// against a reachability ground truth.
package hwgc

import (
	"hwgc/internal/core"
	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/snapshot"
	"hwgc/internal/telemetry"
	"hwgc/internal/workload"
)

// Config parameterizes the simulated system (Table I plus unit parameters).
type Config = core.Config

// GCResult reports one collection's timing and work.
type GCResult = core.GCResult

// AppResult summarizes an application run with periodic collections.
type AppResult = core.AppResult

// CollectorKind selects the CPU baseline or the GC unit.
type CollectorKind = core.CollectorKind

// Collector kinds.
const (
	SWCollector = core.SWCollector
	HWCollector = core.HWCollector
)

// Spec describes a benchmark workload.
type Spec = workload.Spec

// Report is a regenerated experiment result.
type Report = experiments.Report

// Options control experiment scale.
type Options = experiments.Options

// DefaultConfig returns the paper's configuration at paper parameter
// values (Table I, Section VI-A baseline unit).
func DefaultConfig() Config { return core.DefaultConfig() }

// ScaledConfig returns the experiment configuration: paper parameters with
// the unit's translation reach scaled to the 1:10 heap scale.
func ScaledConfig() Config { return experiments.ScaledConfig() }

// Benchmarks returns the six DaCapo benchmark stand-ins.
func Benchmarks() []Spec { return workload.DaCapo() }

// Benchmark returns the named benchmark spec.
func Benchmark(name string) (Spec, bool) { return workload.ByName(name) }

// Telemetry is a metrics registry + time-series recorder + event tracer
// bundle that can be attached to a simulated system (see
// docs/OBSERVABILITY.md). To instrument an experiment fleet, set it as
// Options.Tel (or Config.Tel): every system the run builds forks a private
// child hub from it, and the hub's WriteSummary / RecordedSeries /
// WriteSamplesJSONL / WriteTraceChrome methods merge them back together.
type Telemetry = telemetry.Hub

// NewTelemetry returns a hub whose probe ticks every sampleEvery cycles (0
// picks the default interval). Call EnableRecording on the result to record
// time series and EnableTrace to record structured events.
func NewTelemetry(sampleEvery uint64) *Telemetry { return telemetry.NewHub(sampleEvery) }

// Run executes a benchmark with the chosen collector for gcs collections.
func Run(cfg Config, spec Spec, kind CollectorKind, gcs int, seed uint64) (AppResult, error) {
	return core.RunApp(cfg, spec, kind, gcs, seed, false)
}

// RunInstrumented is Run with a telemetry hub attached to the collector
// system: counters, recorded time series (when EnableRecording was called),
// and trace events (when EnableTrace was called) accumulate in tel across
// all gcs collections.
func RunInstrumented(cfg Config, spec Spec, kind CollectorKind, gcs int, seed uint64, tel *Telemetry) (AppResult, error) {
	r, err := core.NewAppRunner(cfg, spec, kind, seed)
	if err != nil {
		return AppResult{}, err
	}
	r.AttachTelemetry(tel)
	err = r.RunGCs(gcs)
	return r.Res, err
}

// Compare runs a benchmark on both collectors over identical heaps and
// returns the mean per-collection results.
func Compare(cfg Config, spec Spec, gcs int, seed uint64) (sw, hw GCResult, err error) {
	swRes, err := core.RunApp(cfg, spec, core.SWCollector, gcs, seed, false)
	if err != nil {
		return sw, hw, err
	}
	hwRes, err := core.RunApp(cfg, spec, core.HWCollector, gcs, seed, false)
	if err != nil {
		return sw, hw, err
	}
	return swRes.MeanGC(), hwRes.MeanGC(), nil
}

// Experiments lists every paper table/figure runner in order.
func Experiments() []experiments.Runner { return experiments.All() }

// ExperimentRunner regenerates one paper table or figure.
type ExperimentRunner = experiments.Runner

// ExperimentResult pairs an experiment runner with its report or failure
// from a fleet run.
type ExperimentResult = experiments.Result

// RunFleet executes runners with up to parallel workers (0 means
// GOMAXPROCS) and returns one result per runner in the given order.
// Reports are byte-identical to a serial run at any width, with or without
// o.Tel; see docs/PERFORMANCE.md for the determinism contract.
func RunFleet(runners []experiments.Runner, o Options, parallel int) []ExperimentResult {
	return experiments.RunFleet(runners, o, parallel)
}

// RunExperiment regenerates one paper figure or table by ID (e.g. "fig15").
func RunExperiment(id string, o Options) (Report, error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return Report{}, errUnknownExperiment(id)
	}
	return r.Run(o)
}

// DefaultOptions returns full-scale experiment options.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions returns reduced-scale options for smoke runs.
func QuickOptions() Options { return experiments.QuickOptions() }

// ResultCache is the content-addressed result store behind hwgc-bench's
// -cache flag and the hwgc-serve daemon: results are keyed by a canonical
// hash of everything that determines them, and — because reports are
// byte-identical at any fleet width — a hit is provably identical to
// recomputation. See docs/SERVICE.md.
type ResultCache = resultcache.Cache

// NewResultCache returns a cache holding up to maxEntries results in
// memory (0 picks the default). A non-empty dir adds a persistent on-disk
// tier shared across processes.
func NewResultCache(maxEntries int, dir string) (*ResultCache, error) {
	return resultcache.New(maxEntries, dir)
}

// CachedExperiments wraps runners so each consults cache before simulating
// and stores successful reports back.
func CachedExperiments(cache *ResultCache, runners []ExperimentRunner) []ExperimentRunner {
	return experiments.Cached(cache, runners)
}

// SetSnapshots toggles the process-wide heap-image snapshot store (the
// -snapshot flag, default on): with it on, each simulation cell starts from
// a copy-on-write clone of a once-built initial heap image instead of
// rebuilding the image from scratch. Reports are byte-identical either way;
// see docs/PERFORMANCE.md.
func SetSnapshots(on bool) { snapshot.SetEnabled(on) }

// SnapshotsEnabled reports whether cells instantiate from the snapshot
// store.
func SnapshotsEnabled() bool { return snapshot.Enabled() }

// SnapshotStats reports heap-image snapshot store traffic: Misses counts
// images cold-built, Hits counts cells served a copy-on-write clone.
type SnapshotStats = snapshot.Stats

// SnapshotStoreStats returns the process-wide snapshot store's counters.
func SnapshotStoreStats() SnapshotStats { return snapshot.Default().Stats() }

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "hwgc: unknown experiment " + string(e)
}
