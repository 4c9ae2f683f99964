package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"hwgc"
	"hwgc/internal/core"
	"hwgc/internal/heap"
	"hwgc/internal/snapshot"
	"hwgc/internal/workload"
)

// gcUnitScale sizes the gc-unit workload: one cell per DaCapo stand-in at
// the paper's 1:10 scale, each running gcs hardware collections. Two or
// more collections make the later ones churn into memory the sweeper
// reclaimed and mark a heap that has been through a collection.
type gcUnitScale struct {
	specs  []workload.Spec
	gcs    int
	clones int // timed snapshot clones after each cell
}

func newGCUnitScale(tiny bool) gcUnitScale {
	specs := workload.DaCapo()
	if !tiny {
		// 6 cells x 120 clones x 2 passes: 1440 hits, so the p99 rests on
		// 14 of them.
		return gcUnitScale{specs: specs, gcs: 2, clones: 120}
	}
	specs = specs[:2]
	for i := range specs {
		specs[i].LiveObjects /= 32
		specs[i].Roots /= 8
		specs[i].HotObjects /= 4
	}
	return gcUnitScale{specs: specs, gcs: 2, clones: 3}
}

// gcUnitPass is the nominal host time of one gc-unit pass on a 2-core
// Xeon host; a run makes as many passes as fill --seconds.
const gcUnitPass = 11 * time.Second

// runGCUnit builds every cell's heap image in set-up, then runs passes of
// GC-unit collections (hwgc.Run, cloning each cell from its image).
func runGCUnit(p params) (outcome, error) {
	sc := newGCUnitScale(p.tiny)
	cfg := hwgc.ScaledConfig()
	var out outcome
	if p.trace {
		return out, gcUnitTraced(p, sc, cfg, &out)
	}

	// Set-up: build the images five times, the last time into the
	// process-wide store the cells clone from.
	var builds []float64
	for rep := 0; rep < 5; rep++ {
		store := snapshot.NewStore(0)
		if rep == 4 {
			store = snapshot.Default()
		}
		d, err := buildImages(store, cfg, sc.specs, p.seed)
		if err != nil {
			return out, err
		}
		builds = append(builds, d.Seconds())
	}
	out.set("setup_s", "s", median(builds))

	// Passes of the six cells. After each cell, time copy-on-write clones
	// of its image (a cell's heap served from the snapshot store: the
	// gc-unit "hit"), so hits sample the whole run, not one moment of it.
	var (
		first       []hwgc.AppResult
		cycles      uint64
		best        = make([]time.Duration, len(sc.specs))
		hits, alloc []float64
	)
	for pass := 0; pass < passCount(p.seconds, gcUnitPass); pass++ {
		results := make([]hwgc.AppResult, len(sc.specs))
		a := mallocs()
		for i, spec := range sc.specs {
			t := time.Now()
			res, err := hwgc.Run(cfg, spec, core.HWCollector, sc.gcs, p.seed)
			if d := time.Since(t); pass == 0 || d < best[i] {
				best[i] = d
			}
			out.check(err)
			results[i] = res

			img := snapshot.Default().Get(cfg.System, spec, p.seed)
			hits = append(hits, hitBurst(sc.clones, &out, func() error {
				_, _, err := img.Instantiate()
				return err
			}, nil)...)
		}
		alloc = append(alloc, float64(mallocs()-a)/1e6)
		if pass == 0 {
			first = results
			for _, r := range results {
				cycles += r.GCCycles
			}
			out.check(checkRecorded(p, "gc-unit", cyclesDigest(results)))
			continue
		}
		out.check(sameResults(results, first))
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return out, err
	}
	// Host contention only ever slows a cell down, so each cell's fastest
	// pass is the steadiest estimate of its cost; wall_s is their sum.
	var wall time.Duration
	cells := make([]float64, len(best))
	for i, d := range best {
		wall += d
		cells[i] = ms(d)
	}
	out.set("wall_s", "s", wall.Seconds())
	out.set("sim_mcycles_per_s", "Mcycles/s", float64(cycles)/1e6/wall.Seconds())
	out.set("cold_p50_ms", "ms", median(cells))
	out.set("hit_p50_ms", "ms", median(hits))
	out.set("hit_p99_ms", "ms", quantile(hits, 0.99))
	out.set("host_allocs_m", "M", median(alloc))
	out.set("peak_rss_mb", "MiB", rss)
	return out, nil
}

// buildImages times building every cell's image into store. It runs after
// a full collection, which frees the previous build's images, and with the
// Go collector paused, so the time is the builds' own work and not the
// collector's competition for the host's other core.
func buildImages(store *snapshot.Store, cfg hwgc.Config, specs []workload.Spec, seed uint64) (time.Duration, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t := time.Now()
	for _, spec := range specs {
		if _, _, err := store.Get(cfg.System, spec, seed).Instantiate(); err != nil {
			return 0, fmt.Errorf("set-up: %s image: %w", spec.Name, err)
		}
	}
	return time.Since(t), nil
}

// cyclesDigest hashes every simulated figure of a pass.
func cyclesDigest(results []hwgc.AppResult) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s %d %d %v\n", r.Bench, r.MutatorCycles, r.GCCycles, r.GCs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sameResults(got, want []hwgc.AppResult) error {
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("%s: simulated result %+v differs from %+v", want[i].Bench, got[i], want[i])
		}
	}
	return nil
}

// unitCounters sums the simulated counters the GC unit's models expose.
type unitCounters struct {
	markCycles, sweepCycles, engineCycles uint64
	marks, filtered, spilled, ptwWalks    uint64
	dramAccesses, dramRowHits, dramRows   uint64
	dramBusy, grants, busBeats            uint64
	blocksSwept, cellsFreed, churnBytes   uint64
}

func (c *unitCounters) add(r *core.AppRunner) {
	hw := r.HW
	for _, g := range r.Res.GCs {
		c.markCycles += g.MarkCycles
		c.sweepCycles += g.SweepCycles
	}
	c.engineCycles += hw.Eng.Now()
	c.marks += hw.Trace.Marker.Marks
	c.filtered += hw.Trace.Marker.Filtered
	c.spilled += hw.Trace.MQ.SpilledEntries
	c.ptwWalks += hw.Trace.Walker.Walks + hw.Sweep.Walker.Walks
	m := hw.MemStats()
	c.dramAccesses += m.Accesses
	c.dramRowHits += m.RowHits
	c.dramRows += m.RowHits + m.RowMisses + m.RowConflicts
	c.dramBusy += m.BusyCycles
	c.grants += hw.Bus.Grants
	c.busBeats += hw.Bus.BusyBeats
	c.blocksSwept += hw.Sweep.BlocksSwept
	c.cellsFreed += hw.Sweep.CellsFreed
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// gcUnitTraced runs every cell untraced through hwgc.Run, then again phase
// by phase with a span and a pprof label around each layer call and with
// every collection validated. The traced cell must simulate exactly the
// cycles of the untraced one.
func gcUnitTraced(p params, sc gcUnitScale, cfg hwgc.Config, out *outcome) error {
	// Build the images first, so both the reference and the traced cells
	// clone them, as the untraced run's cells do.
	for _, spec := range sc.specs {
		snapshot.Default().Get(cfg.System, spec, p.seed)
	}
	refs := make([]hwgc.AppResult, len(sc.specs))
	var untraced time.Duration
	for i, spec := range sc.specs {
		t := time.Now()
		res, err := hwgc.Run(cfg, spec, core.HWCollector, sc.gcs, p.seed)
		untraced += time.Since(t)
		out.check(err)
		refs[i] = res
	}
	out.check(checkRecorded(p, "gc-unit", cyclesDigest(refs)))

	tr := newTracer(time.Now())
	prof, err := startCPUProfile(filepath.Join(p.outDir, fmt.Sprintf("gc-unit-seed%d.cpu.pprof", p.seed)))
	if err != nil {
		return err
	}
	var c unitCounters
	var clones []float64
	root := tr.open(0, "gc-unit", "gc-unit")
	for i, spec := range sc.specs {
		cell := tr.open(root, spec.Name, "cell")
		var r *core.AppRunner
		d := tr.do(cell, spec.Name, "snapshot.clone", func() {
			r, err = core.NewAppRunner(cfg, spec, core.HWCollector, p.seed)
		})
		clones = append(clones, ms(d))
		if err != nil {
			out.check(err)
			tr.close(cell)
			continue
		}
		for g := 0; g < sc.gcs && err == nil; g++ {
			err = tracedCollection(tr, cell, r, &c, out)
		}
		tr.close(cell)
		if err == nil {
			err = sameResults([]hwgc.AppResult{r.Res}, refs[i:i+1])
		}
		out.check(err)
		c.add(r)
	}
	tr.close(root)
	shares, err := prof.stop()
	if err != nil {
		return err
	}

	t := tr.byName()
	out.set("snapshot.clone_ms", "ms", median(clones))
	out.set("workload.churn_s", "s", t["workload.churn"].Seconds())
	out.set("workload.churn_ns_per_kib", "ns/KiB", float64(t["workload.churn"])/(float64(c.churnBytes)/1024))
	out.set("rts.reach_s", "s", t["rts.reach"].Seconds())
	out.set("rts.check_s", "s", t["rts.check"].Seconds())
	out.set("core.mark_s", "s", t["core.mark"].Seconds())
	out.set("core.mark_ns_per_cycle", "ns/cycle", float64(t["core.mark"])/float64(c.markCycles))
	out.set("core.sweep_s", "s", t["core.sweep"].Seconds())
	out.set("core.sweep_ns_per_cycle", "ns/cycle", float64(t["core.sweep"])/float64(c.sweepCycles))
	out.set("workload.prune_s", "s", t["workload.prune"].Seconds())
	out.set("untraced_frac", "fraction", tr.untracedFrac(root))
	// Validation is not part of the untraced run; leave it out of the cost.
	tracedCost := tr.dur(root) - t["rts.check"]
	out.set("trace_overhead_frac", "fraction", tracedCost.Seconds()/untraced.Seconds()-1)

	out.set("model.mark_cycles", "cycles", float64(c.markCycles))
	out.set("model.sweep_cycles", "cycles", float64(c.sweepCycles))
	out.set("trace.marks", "count", float64(c.marks))
	out.set("trace.filtered", "count", float64(c.filtered))
	out.set("trace.spilled_entries", "count", float64(c.spilled))
	out.set("vmem.ptw_walks", "count", float64(c.ptwWalks))
	out.set("dram.accesses", "count", float64(c.dramAccesses))
	out.set("dram.row_hit_frac", "fraction", frac(c.dramRowHits, c.dramRows))
	out.set("dram.busy_frac", "fraction", frac(c.dramBusy, c.engineCycles))
	out.set("tilelink.grants", "count", float64(c.grants))
	out.set("tilelink.busy_frac", "fraction", frac(c.busBeats, c.engineCycles))
	out.set("sweep.blocks_swept", "count", float64(c.blocksSwept))
	out.set("sweep.cells_freed", "count", float64(c.cellsFreed))
	shares.set(out)
	return tr.write(p.outDir, fmt.Sprintf("gc-unit-seed%d.spans.json", p.seed))
}

// tracedCollection is core.AppRunner.Step for the hardware collector with
// validation on, split at each layer call: churn until the heap fills,
// root scan and ground-truth reachability, mark, sweep, and pruning of the
// mutator's dead pool.
func tracedCollection(tr *tracer, cell int, r *core.AppRunner, c *unitCounters, out *outcome) error {
	group := r.Spec.Name
	allocBefore := r.App.AllocatedBytes
	tr.do(cell, group, "workload.churn", func() {
		for r.App.Churn(1 << 20) {
			// keep churning until the heap fills
		}
	})
	grown := r.App.AllocatedBytes - allocBefore
	if len(r.Res.GCs) > 0 && grown == 0 {
		return fmt.Errorf("%s: no allocation progress after GC", group)
	}
	c.churnBytes += grown
	r.Res.MutatorCycles += uint64(float64(grown) * r.Spec.MutatorCyclesPerByte)

	var reach map[heap.Ref]bool
	tr.do(cell, group, "rts.reach", func() {
		r.App.WriteRoots()
		reach = r.Sys.Reachable()
	})
	hw := r.HW
	markedBefore, freedBefore := hw.Trace.Marker.NewlyMarked, hw.Sweep.CellsFreed
	var g core.GCResult
	tr.do(cell, group, "core.mark", func() { g.MarkCycles = hw.RunMark() })
	var err error
	tr.do(cell, group, "rts.check", func() { err = r.Sys.CheckMarks() })
	out.check(err)
	tr.do(cell, group, "core.sweep", func() { g.SweepCycles = hw.RunSweep() })
	g.Marked = hw.Trace.Marker.NewlyMarked - markedBefore
	g.Freed = hw.Sweep.CellsFreed - freedBefore
	hw.Trace.FlushTLBs()
	tr.do(cell, group, "rts.check", func() { err = r.Sys.CheckSweep() })
	out.check(err)
	tr.do(cell, group, "workload.prune", func() { r.App.PruneDeadPool(reach) })
	r.Res.GCs = append(r.Res.GCs, g)
	r.Res.GCCycles += g.TotalCycles()
	return nil
}
