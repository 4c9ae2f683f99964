// hwgc-bench regenerates the paper's evaluation: every table and figure
// (Figure 1, Table I, Figures 15-23) from the simulator, printing the same
// rows/series the paper reports plus a paper-vs-measured note.
//
// Usage:
//
//	hwgc-bench                  # run everything at full scale
//	hwgc-bench -quick           # reduced-scale smoke run
//	hwgc-bench -only fig15,fig20
//	hwgc-bench -run 'fig1[0-9]' # regexp over experiment IDs
//	hwgc-bench -parallel 8      # worker count (default GOMAXPROCS)
//	hwgc-bench -cluster-workers 2  # distribute over loopback cluster workers
//	hwgc-bench -cluster-workers 2 -fleet-trace trace.json  # + span/flight export
//	hwgc-bench -snapshot=false  # cold-build every cell (default: CoW clones)
//	hwgc-bench -cache           # serve repeated cells from the result cache
//	hwgc-bench -cache-dir DIR   # ... persisted across runs under DIR
//	hwgc-bench -ledger runs/    # append a run manifest (see hwgc-report)
//	hwgc-bench -timeseries      # record bounded per-unit time series
//	hwgc-bench -report out.html # ... and render the HTML run report
//	hwgc-bench -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/ledger"
	"hwgc/internal/runflags"
	"hwgc/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-scale workloads (~4x smaller)")
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	runFilter := flag.String("run", "", "regexp over experiment IDs (composes with -only)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation cells (<=1 serial)")
	clusterWorkers := flag.Int("cluster-workers", 0,
		"distribute experiments over this many in-process loopback cluster workers (lease dispatch; 0 = off)")
	fleetTrace := flag.String("fleet-trace", "",
		"with -cluster-workers: write the fleet's trace export (span trees + control-plane flight recorder, the /cluster/v1/trace document) to this JSON file")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	gcs := flag.Int("gcs", 0, "collections per benchmark (0 = default)")
	seed := flag.Uint64("seed", 42, "workload seed")
	snapshots := flag.Bool("snapshot", true, "instantiate cells from copy-on-write heap-image snapshots")
	useCache := flag.Bool("cache", false, "serve repeated cells from the content-addressed result cache")
	cacheDir := flag.String("cache-dir", "", "persist cache entries under this directory (implies -cache)")
	outFlags := runflags.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, r := range hwgc.Experiments() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}

	hwgc.SetSnapshots(*snapshots)

	opts := hwgc.DefaultOptions()
	if *quick {
		opts = hwgc.QuickOptions()
	}
	if *gcs > 0 {
		opts.GCs = *gcs
	}
	opts.Seed = *seed

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id != "" {
			selected[id] = true
		}
	}
	var runRE *regexp.Regexp
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -run pattern: %v\n", err)
			os.Exit(2)
		}
		runRE = re
	}

	var runners []hwgc.ExperimentRunner
	for _, r := range hwgc.Experiments() {
		if len(selected) > 0 && !selected[r.ID] {
			continue
		}
		if runRE != nil && !runRE.MatchString(r.ID) {
			continue
		}
		runners = append(runners, r)
	}
	if len(runners) == 0 {
		fmt.Fprintf(os.Stderr, "no experiments match -only %q -run %q; valid IDs:\n", *only, *runFilter)
		for _, r := range hwgc.Experiments() {
			fmt.Fprintf(os.Stderr, "  %s\n", r.ID)
		}
		os.Exit(2)
	}

	// The hub rides in the options into every system the experiment
	// runners build internally (loopback cluster workers included); each
	// forks a private child, so the fleet keeps its full parallel width.
	out, err := outFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts.Tel = out.Tel

	var cache *hwgc.ResultCache
	if *useCache || *cacheDir != "" {
		cache, err = hwgc.NewResultCache(0, *cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cache.AttachTelemetry(out.Tel)
		if *clusterWorkers <= 0 {
			// Cluster mode wires the cache into the coordinator and the
			// workers instead; wrapping here too would double-check it.
			runners = hwgc.CachedExperiments(cache, runners)
		}
	}

	wantManifest := out.WantManifest()
	// Per-experiment wall time, recorded by a timing wrapper around each
	// (possibly cache-backed) runner. The map is written from fleet workers.
	var timesMu sync.Mutex
	wallMS := map[string]float64{}
	if wantManifest {
		for i := range runners {
			id, run := runners[i].ID, runners[i].Run
			runners[i].Run = func(o hwgc.Options) (hwgc.Report, error) {
				t0 := time.Now()
				rep, err := run(o)
				timesMu.Lock()
				wallMS[id] = float64(time.Since(t0).Microseconds()) / 1e3
				timesMu.Unlock()
				return rep, err
			}
		}
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()

	// Per-experiment cluster attribution and trace for the manifest (empty
	// when not in cluster mode).
	workerOf := map[string]string{}
	cacheHitOf := map[string]bool{}
	attemptsOf := map[string]int{}
	retriesOf := map[string]int{}
	traceOf := map[string]string{}
	spansOf := map[string][]telemetry.Span{}

	var results []hwgc.ExperimentResult
	if *clusterWorkers > 0 {
		// Span recording is on for every cluster run: spans are wall-clock
		// observability riding outside the results, so the simulated cycle
		// counts and report bytes are identical either way.
		coord := cluster.NewCoordinator(cluster.Config{
			Runners: runners,
			Cache:   cache,
			Spans:   telemetry.NewWallSpans(),
		})
		pool, err := cluster.StartLoopbackWorkers(coord, *clusterWorkers, cluster.WorkerConfig{
			Name:      "bench",
			Runners:   runners,
			Cache:     cache,
			PollEvery: 5 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cres := cluster.RunFleet(context.Background(), coord, runners, opts)
		if err := pool.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *fleetTrace != "" {
			exp := coord.TraceExport()
			data, err := json.MarshalIndent(exp, "", "  ")
			if err == nil {
				err = os.WriteFile(*fleetTrace, data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote fleet trace to %s (%d spans, %d flight events)\n",
				*fleetTrace, len(exp.Spans), len(exp.Events))
		}
		coord.Close()
		results = make([]hwgc.ExperimentResult, len(cres))
		for i, r := range cres {
			results[i] = r.Result
			workerOf[r.Runner.ID] = r.Worker
			cacheHitOf[r.Runner.ID] = r.CacheHit
			attemptsOf[r.Runner.ID] = r.Attempts
			retriesOf[r.Runner.ID] = r.Retries
			traceOf[r.Runner.ID] = r.TraceID
			spansOf[r.Runner.ID] = r.Spans
		}
	} else {
		results = hwgc.RunFleet(runners, opts, *parallel)
	}
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: ERROR: %v\n", res.Runner.ID, res.Err)
			failed++
			continue
		}
		fmt.Println(res.Report.String())
	}

	if wantManifest {
		m := ledger.NewManifest("hwgc-bench", ledger.Scale{
			GCs: opts.GCs, Seed: opts.Seed, Quick: opts.Quick, Shrink: opts.Shrink,
		})
		m.Host.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		m.Host.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
		m.Host.Mallocs = memAfter.Mallocs - memBefore.Mallocs
		for _, res := range results {
			rec := ledger.Experiment{
				ID:       res.Runner.ID,
				Title:    res.Runner.Title,
				CellKey:  experiments.CellKey(res.Runner.ID, opts).String(),
				Worker:   workerOf[res.Runner.ID],
				CacheHit: cacheHitOf[res.Runner.ID],
				Attempts: attemptsOf[res.Runner.ID],
				Retries:  retriesOf[res.Runner.ID],
				TraceID:  traceOf[res.Runner.ID],
				Spans:    spansOf[res.Runner.ID],
				WallMS:   wallMS[res.Runner.ID],
			}
			if res.Err != nil {
				rec.Error = res.Err.Error()
			} else {
				rec.Metrics = res.Report.Metrics
			}
			m.Experiments = append(m.Experiments, rec)
		}
		if err := out.WriteManifest(os.Stdout, m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed++
		}
	}

	if cache != nil {
		st := cache.Stats()
		fmt.Printf("result cache: %d hits (%d from disk), %d misses, hit rate %.0f%%\n",
			st.Hits, st.DiskHits, st.Misses, 100*st.HitRate())
	}
	if *snapshots {
		st := hwgc.SnapshotStoreStats()
		fmt.Printf("snapshot store: %d images built, %d cells cloned\n", st.Misses, st.Hits)
	}
	if err := out.WriteTelemetry(os.Stdout, "telemetry summary:"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed++
	}
	if failed > 0 {
		os.Exit(1)
	}
}
