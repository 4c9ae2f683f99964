package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/experiments"
	"hwgc/internal/telemetry"
)

// suiteScale sizes the suite workload.
type suiteScale struct {
	runners     []hwgc.ExperimentRunner
	shrink      int
	hitsPerCell int    // result-cache hits timed after each runner
	replay      string // runner run again after the pass, from warm images
}

func newSuiteScale(tiny bool) suiteScale {
	if !tiny {
		// One quick suite as BenchmarkHostFullSuiteSerial runs it; 600 hits
		// after each of its 16 runners give 9600, so the p99 rests on 96.
		// fig20, the replay, is the largest runner and sets the peak RSS,
		// whose height depends on where Go collections fall; the replay
		// is a second draw of it.
		return suiteScale{runners: hwgc.Experiments(), shrink: 8, hitsPerCell: 600, replay: "fig20"}
	}
	var rs []hwgc.ExperimentRunner
	for _, r := range hwgc.Experiments() {
		switch r.ID {
		case "table1", "fig22", "abl-barriers", "abl-layout":
			rs = append(rs, r)
		}
	}
	return suiteScale{runners: rs, shrink: 32, hitsPerCell: 5, replay: "abl-layout"}
}

// runSuite runs the quick paper evaluation once, serially, on the
// process's empty snapshot store (like a fresh hwgc-bench process).
func runSuite(p params) (outcome, error) {
	sc := newSuiteScale(p.tiny)
	o := hwgc.QuickOptions()
	o.Shrink = sc.shrink
	o.Seed = p.seed
	o.Parallel = 1 // what RunFleet resolves width 1 to
	var out outcome
	if p.trace {
		return out, suiteTraced(p, sc, o, &out)
	}

	// The pass: each runner as hwgc.RunFleet runs it at width 1. After
	// each, its report goes into an in-memory result cache and the cell is
	// served from it sc.hitsPerCell times (the suite's "hit"), so hits
	// sample the whole run and weigh every cell equally. Only the runners
	// count towards wall_s and host_allocs_m.
	cache, err := hwgc.NewResultCache(0, "")
	if err != nil {
		return out, err
	}
	cached := hwgc.CachedExperiments(cache, sc.runners)
	beat := &telemetry.Beat{}
	o.Beat = beat
	var (
		wall   time.Duration
		allocs uint64
		cells  = make([]float64, 0, len(sc.runners))
		hits   []float64
	)
	reports := make([][]byte, len(sc.runners))
	// Set-up is all a fresh process does before its first cell.
	out.set("setup_s", "s", time.Since(p.launched).Seconds())
	for i, r := range sc.runners {
		a := mallocs()
		t := time.Now()
		res := hwgc.RunFleet([]hwgc.ExperimentRunner{r}, o, 1)[0]
		d := time.Since(t)
		allocs += mallocs() - a
		wall += d
		cells = append(cells, ms(d))
		reports[i], err = encodeResult(res)
		out.check(err)
		if err != nil {
			continue // a failed cell is never cached
		}
		if err := cache.Put(experiments.CellKey(r.ID, o), reports[i]); err != nil {
			return out, err
		}
		var rep hwgc.Report
		hits = append(hits, hitBurst(sc.hitsPerCell, &out, func() (err error) {
			rep, err = cached[i].Run(o)
			return err
		}, func() error { return sameReport(rep, reports[i]) })...)
	}
	cycles := beat.Cycles()
	out.check(checkSuiteDigest(p, reports))
	out.check(checkReplay(sc, o, reports))
	if st := cache.Stats(); st.Misses > 0 {
		return out, fmt.Errorf("result cache missed %d replayed cells", st.Misses)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return out, err
	}
	out.set("wall_s", "s", wall.Seconds())
	out.set("cold_p50_ms", "ms", median(cells))
	out.set("hit_p50_ms", "ms", median(hits))
	out.set("hit_p99_ms", "ms", quantile(hits, 0.99))
	out.set("sim_mcycles_per_s", "Mcycles/s", float64(cycles)/1e6/wall.Seconds())
	out.set("host_allocs_m", "M", float64(allocs)/1e6)
	out.set("peak_rss_mb", "MiB", rss)
	return out, nil
}

// encodeResult is a cell's report bytes, or its error.
func encodeResult(res hwgc.ExperimentResult) ([]byte, error) {
	if res.Err != nil {
		return nil, fmt.Errorf("%s: %w", res.Runner.ID, res.Err)
	}
	return experiments.EncodeReport(res.Report)
}

// sameReport checks a served report against the bytes of its first run.
func sameReport(rep hwgc.Report, want []byte) error {
	got, err := experiments.EncodeReport(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: served report differs from the computed one", rep.ID)
	}
	return nil
}

// reportDigest hashes the suite's reports in canonical order.
func reportDigest(reports [][]byte) (string, error) {
	h := sha256.New()
	for _, r := range reports {
		if r == nil {
			return "", errors.New("suite digest: a cell failed")
		}
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkReplay runs sc.replay once more after the pass and checks that it
// reports the pass's bytes. The pass built the runner's heap images cold;
// the replay clones them from the snapshot store, which must not change a
// report.
func checkReplay(sc suiteScale, o hwgc.Options, reports [][]byte) error {
	for i, r := range sc.runners {
		if r.ID != sc.replay || reports[i] == nil {
			continue
		}
		b, err := encodeResult(hwgc.RunFleet([]hwgc.ExperimentRunner{r}, o, 1)[0])
		if err != nil {
			return err
		}
		if !bytes.Equal(b, reports[i]) {
			return fmt.Errorf("%s: replay from warm images differs from the pass", r.ID)
		}
	}
	return nil
}

// executableHash identifies the code under test: a hash of this
// executable, which links in the simulator.
var executableHash = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

// checkRecorded compares a digest of a run's simulated results with the
// one recorded under p.outDir by the first run of the same executable,
// workload, scale and seed, and records it when there is none. Simulation
// is deterministic, so every run of one build at one seed, traced or not,
// must agree. A build from other sources has another executable hash and
// so starts its own record: a change that rightly moves simulated results
// is never held to an older build's digest.
func checkRecorded(p params, workload, digest string) error {
	build, err := executableHash()
	if err != nil {
		return err
	}
	scale := ""
	if p.tiny {
		scale = "-tiny"
	}
	path := filepath.Join(p.outDir, fmt.Sprintf("%s%s-seed%d-%s.digest", workload, scale, p.seed, build))
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(digest), 0o644)
	}
	if err != nil {
		return err
	}
	if string(want) != digest {
		return fmt.Errorf("%s digest %s differs from %s recorded at seed %d", workload, digest, want, p.seed)
	}
	return nil
}

// checkSuiteDigest checks the suite's reports against the recorded digest.
func checkSuiteDigest(p params, reports [][]byte) error {
	d, err := reportDigest(reports)
	if err != nil {
		return err
	}
	return checkRecorded(p, "suite", d)
}

// suiteTraced runs the same pass with one span and pprof label per
// experiment and reports per-experiment time, snapshot-store traffic, Go
// GC cost and host time by package.
func suiteTraced(p params, sc suiteScale, o hwgc.Options, out *outcome) error {
	tr := newTracer(time.Now())
	prof, err := startCPUProfile(filepath.Join(p.outDir, fmt.Sprintf("suite-seed%d.cpu.pprof", p.seed)))
	if err != nil {
		return err
	}
	gcBefore := gcCPU()
	reports := make([][]byte, len(sc.runners))
	root := tr.open(0, "suite", "suite")
	for i, r := range sc.runners {
		var res hwgc.ExperimentResult
		d := tr.do(root, "suite", "experiments."+r.ID, func() {
			res = hwgc.RunFleet([]hwgc.ExperimentRunner{r}, o, 1)[0]
		})
		out.set("experiments."+r.ID+"_s", "s", d.Seconds())
		reports[i], err = encodeResult(res)
		out.check(err)
	}
	tr.close(root)
	gcAfter := gcCPU()
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	out.check(checkSuiteDigest(p, reports))

	st := hwgc.SnapshotStoreStats()
	gets := float64(st.Hits + st.Misses)
	out.set("snapshot.images_built", "count", float64(st.Misses))
	out.set("snapshot.cells_cloned", "count", gets)
	if gets > 0 {
		out.set("snapshot.hit_frac", "fraction", float64(st.Hits)/gets)
	}
	if busy := gcAfter.busy - gcBefore.busy; busy > 0 {
		out.set("go.gc_cpu_frac", "fraction", (gcAfter.gc-gcBefore.gc)/busy)
	}
	shares.set(out)
	out.set("untraced_frac", "fraction", tr.untracedFrac(root))
	return tr.write(p.outDir, fmt.Sprintf("suite-seed%d.spans.json", p.seed))
}

type gcCPUSample struct{ gc, busy float64 }

// gcCPU reads the Go runtime's cumulative GC CPU time and all non-idle CPU
// time of this process.
func gcCPU() gcCPUSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPUSample{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}
