// hwgc-sim runs a single garbage collection simulation: one benchmark, one
// collector, a configurable number of collections, printing per-pause
// timing and unit statistics. It is the "poke at one configuration" tool;
// hwgc-bench regenerates whole figures.
//
// Usage:
//
//	hwgc-sim -bench xalan -collector hw -gcs 3
//	hwgc-sim -bench avrora -collector sw -memory pipe
//	hwgc-sim -bench luindex -collector hw -sweepers 4 -markq 256 -compress
//	hwgc-sim -run 'lu.*' -parallel 4   # fan matching benchmarks out
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/core"
	"hwgc/internal/ledger"
	"hwgc/internal/runflags"
	"hwgc/internal/workload"
)

func main() {
	bench := flag.String("bench", "avrora", "benchmark: avrora, luindex, lusearch, pmd, sunflow, xalan")
	runFilter := flag.String("run", "", "regexp over benchmark names; run every match (overrides -bench)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent benchmark runs with -run (<=1 serial)")
	collector := flag.String("collector", "hw", "collector: hw (GC unit) or sw (CPU baseline)")
	gcs := flag.Int("gcs", 3, "number of collections")
	seed := flag.Uint64("seed", 42, "workload seed")
	memory := flag.String("memory", "ddr3", "memory model: ddr3 or pipe")
	sweepers := flag.Int("sweepers", 0, "block sweepers (0 = default)")
	markq := flag.Int("markq", 0, "mark queue entries (0 = default)")
	tracerq := flag.Int("tracerq", 0, "tracer queue entries (0 = default)")
	compress := flag.Bool("compress", false, "compress mark-queue references to 32 bits")
	snapshots := flag.Bool("snapshot", true, "instantiate runs from copy-on-write heap-image snapshots")
	mbc := flag.Int("mbc", 0, "mark-bit cache entries")
	shared := flag.Bool("shared", false, "shared-cache traversal unit design")
	validate := flag.Bool("validate", false, "cross-check marks/sweeps against ground truth")
	outFlags := runflags.Register(flag.CommandLine)
	flag.Parse()

	var specsToRun []workload.Spec
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -run pattern: %v\n", err)
			os.Exit(2)
		}
		for _, s := range workload.DaCapo() {
			if re.MatchString(s.Name) {
				specsToRun = append(specsToRun, s)
			}
		}
		if len(specsToRun) == 0 {
			fmt.Fprintf(os.Stderr, "no benchmark matches %q\n", *runFilter)
			os.Exit(2)
		}
	} else {
		spec, ok := workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
			os.Exit(2)
		}
		specsToRun = []workload.Spec{spec}
	}

	hwgc.SetSnapshots(*snapshots)

	cfg := hwgc.ScaledConfig()
	if *memory == "pipe" {
		cfg.Memory = core.MemPipe
	}
	if *sweepers > 0 {
		cfg.Sweep.Sweepers = *sweepers
	}
	if *markq > 0 {
		cfg.Unit.MarkQueueEntries = *markq
	}
	if *tracerq > 0 {
		cfg.Unit.TracerQueueEntries = *tracerq
	}
	cfg.Unit.Compress = *compress
	cfg.Unit.MarkBitCacheSize = *mbc
	cfg.Unit.SharedCache = *shared

	kind := core.HWCollector
	if *collector == "sw" {
		kind = core.SWCollector
	}

	// Every benchmark run forks a private child of the hub (runOne), so
	// telemetry output composes with a parallel -run sweep.
	out, err := outFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tel := out.Tel
	width := *parallel

	// Per-benchmark outcomes, kept for the run ledger.
	ress := make([]core.AppResult, len(specsToRun))
	times := make([]float64, len(specsToRun))
	errsAll := make([]error, len(specsToRun))
	run := func(w io.Writer, i int) error {
		t0 := time.Now()
		res, err := runOne(w, cfg, specsToRun[i], kind, *gcs, *seed, *memory, *validate, tel)
		ress[i], times[i] = res, float64(time.Since(t0).Microseconds())/1e3
		return err
	}

	failed := 0
	if width <= 1 || len(specsToRun) <= 1 {
		for i, spec := range specsToRun {
			if errsAll[i] = run(os.Stdout, i); errsAll[i] != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", spec.Name, errsAll[i])
				failed++
			}
		}
	} else {
		// Fan benchmarks out, each rendering into its own buffer, and print
		// in canonical (flag) order so output matches a serial run.
		if width > len(specsToRun) {
			width = len(specsToRun)
		}
		bufs := make([]bytes.Buffer, len(specsToRun))
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					errsAll[i] = run(&bufs[i], i)
				}
			}()
		}
		for i := range specsToRun {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		for i := range specsToRun {
			os.Stdout.Write(bufs[i].Bytes())
			if errsAll[i] != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", specsToRun[i].Name, errsAll[i])
				failed++
			}
		}
	}

	if out.WantManifest() {
		m := buildSimManifest(*collector, *gcs, *seed, specsToRun, ress, times, errsAll)
		if err := out.WriteManifest(os.Stdout, m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed++
		}
	}
	if err := out.WriteTelemetry(os.Stdout, "\ntelemetry summary:"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed++
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// buildSimManifest records the sweep as a manifest: one experiment record
// per benchmark ("sim:<bench>:<collector>") with mean mark/sweep times and
// the GC share as metrics.
func buildSimManifest(collector string, gcs int, seed uint64,
	specs []workload.Spec, ress []core.AppResult, times []float64,
	errs []error) *ledger.Manifest {
	m := ledger.NewManifest("hwgc-sim", ledger.Scale{GCs: gcs, Seed: seed})
	for i, spec := range specs {
		rec := ledger.Experiment{
			ID:     fmt.Sprintf("sim:%s:%s", spec.Name, collector),
			WallMS: times[i],
		}
		m.Host.WallMS += times[i]
		if errs[i] != nil {
			rec.Error = errs[i].Error()
		} else {
			mean := ress[i].MeanGC()
			rec.Metrics = map[string]float64{
				"mark_ms":     mean.MarkMS(),
				"sweep_ms":    mean.SweepMS(),
				"gc_fraction": ress[i].GCFraction(),
			}
		}
		m.Experiments = append(m.Experiments, rec)
	}
	return m
}

// runOne executes one benchmark/collector simulation and renders the full
// report into w.
func runOne(w io.Writer, cfg hwgc.Config, spec workload.Spec, kind core.CollectorKind,
	gcs int, seed uint64, memory string, validate bool, tel *hwgc.Telemetry) (core.AppResult, error) {
	runner, err := core.NewAppRunner(cfg, spec, kind, seed)
	if err != nil {
		return core.AppResult{}, err
	}
	// ForRun forks a private child hub so parallel sweeps never share
	// mutable telemetry state.
	runner.AttachTelemetry(tel.ForRun(spec.Name))
	runner.Validate = validate
	fmt.Fprintf(w, "%s on %s, %d collections (memory=%s)\n", kind, spec.Name, gcs, memory)
	for i := 0; i < gcs; i++ {
		if err := runner.Step(); err != nil {
			return runner.Res, err
		}
		g := runner.Res.GCs[i]
		fmt.Fprintf(w, "GC %d: mark %8.3f ms  sweep %8.3f ms  marked %7d  freed %7d\n",
			i+1, g.MarkMS(), g.SweepMS(), g.Marked, g.Freed)
	}
	mean := runner.Res.MeanGC()
	fmt.Fprintf(w, "mean: mark %8.3f ms  sweep %8.3f ms\n", mean.MarkMS(), mean.SweepMS())
	fmt.Fprintf(w, "GC share of CPU time: %.1f%%\n", runner.Res.GCFraction()*100)

	if kind == core.HWCollector {
		hw := runner.HW
		fmt.Fprintf(w, "\ntraversal unit:\n")
		m := hw.Trace.Marker
		fmt.Fprintf(w, "  marker: %d reads (%d newly marked, %d already marked, %d filtered)\n",
			m.Marks, m.NewlyMarked, m.AlreadyMarked, m.Filtered)
		tr := hw.Trace.Tracer
		fmt.Fprintf(w, "  tracer: %d spans, %d chunk requests, %d refs fetched (%d pushed)\n",
			tr.Spans, tr.ChunkReqs, tr.RefsFetched, tr.RefsPushed)
		mq := hw.Trace.MQ
		fmt.Fprintf(w, "  mark queue: peak depth %d, spill writes %d, spill reads %d, direct copies %d\n",
			mq.PeakDepth, mq.SpillWriteReqs, mq.SpillReadReqs, mq.DirectCopies)
		fmt.Fprintf(w, "  walker: %d walks, %d PTE fetches, %d L2 TLB hits\n",
			hw.Trace.Walker.Walks, hw.Trace.Walker.PTEFetches, hw.Trace.Walker.L2Hits)
		fmt.Fprintf(w, "reclamation unit: %d blocks, %d cells scanned, %d freed, %d live\n",
			hw.Sweep.BlocksSwept, hw.Sweep.CellsScanned, hw.Sweep.CellsFreed, hw.Sweep.CellsLive)
		fmt.Fprintf(w, "interconnect: %d grants, busy %.1f%%, %.2f cycles/request\n",
			hw.Bus.Grants, hw.Bus.BusyFraction()*100, hw.Bus.CyclesPerRequest())
		st := hw.MemStats()
		fmt.Fprintf(w, "DRAM: %d accesses, %.1f MB, row hits %d / misses %d / conflicts %d\n",
			st.Accesses, float64(st.Bytes)/1e6, st.RowHits, st.RowMisses, st.RowConflicts)
	} else {
		sw := runner.SW
		fmt.Fprintf(w, "\nCPU: %d instructions, %d memory ops, %d mispredicts\n",
			sw.CPU.Instructions, sw.CPU.MemOps, sw.CPU.Mispredicts)
		fmt.Fprintf(w, "L1: %d hits / %d misses; L2: %d hits / %d misses\n",
			sw.CPU.L1.Hits(), sw.CPU.L1.Misses(), sw.CPU.L2.Hits(), sw.CPU.L2.Misses())
		st := sw.Sync.Stats()
		fmt.Fprintf(w, "DRAM: %d accesses, %.1f MB\n", st.Accesses, float64(st.Bytes)/1e6)
	}
	if validate {
		fmt.Fprintln(w, "\nvalidation: marks and sweeps matched the reachability ground truth")
	}
	fmt.Fprintln(w)
	return runner.Res, nil
}
