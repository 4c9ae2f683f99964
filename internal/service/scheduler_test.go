package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/ledger"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

// blockingRunner returns a runner that parks until release is closed, then
// returns a fixed report. It lets tests hold a worker busy deterministically.
func blockingRunner(id string, release <-chan struct{}) experiments.Runner {
	return experiments.Runner{
		ID:    id,
		Title: "test runner " + id,
		Run: func(o experiments.Options) (experiments.Report, error) {
			<-release
			return experiments.Report{ID: id, Rows: []string{"done"}}, nil
		},
	}
}

// coordinator serves the given runners uncached.
func coordinator(runners ...experiments.Runner) *cluster.Coordinator {
	return cluster.NewCoordinator(cluster.Config{Runners: runners})
}

func drain(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitUnknownExperiment(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	_, err := s.Submit("nope", experiments.QuickOptions())
	var unknown *UnknownExperimentError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want UnknownExperimentError", err)
	}
	if len(unknown.Valid) == 0 || unknown.Valid[0] == "" {
		t.Fatalf("error does not list valid IDs: %v", unknown.Valid)
	}
	found := false
	for _, id := range unknown.Valid {
		if id == "table1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("valid IDs missing table1: %v", unknown.Valid)
	}
}

func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers: 1,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners:    []experiments.Runner{blockingRunner("block", release), blockingRunner("fast", closed())},
			Cache:      cache,
			MaxPending: 1,
		}),
	})
	defer drain(t, s)
	mustFinish(t, s, "fast", experiments.Options{}) // cache the cell

	// First job occupies the lone worker, second fills the queue.
	first, err := s.Submit("block", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID(), StateRunning)
	if _, err := s.Submit("block", experiments.Options{}); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if _, err := s.Submit("block", experiments.Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	// A full queue never refuses a cache hit.
	if v := mustFinish(t, s, "fast", experiments.Options{}); !v.CacheHit {
		t.Fatal("cached cell submitted at a full queue was not a cache hit")
	}
	close(release)
}

func TestJobTimeoutCancels(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // let the detached sim goroutine exit
	s := New(Config{
		Workers: 1,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners:    []experiments.Runner{blockingRunner("stuck", release)},
			JobTimeout: 20 * time.Millisecond,
		}),
	})
	defer drain(t, s)

	job, err := s.Submit("stuck", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job did not reach a terminal state")
	}
	v, _ := s.View(job.ID())
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	if v.Error == "" {
		t.Fatal("cancelled job carries no error")
	}
}

func TestDrainCancelsInFlightAtDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := New(Config{
		Workers:     1,
		Coordinator: coordinator(blockingRunner("stuck", release)),
	})
	job, err := s.Submit("stuck", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID(), StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	v, _ := s.View(job.ID())
	if v.State != StateCancelled {
		t.Fatalf("state after deadline drain = %s, want cancelled", v.State)
	}
	// Draining schedulers refuse new work.
	if _, err := s.Submit("stuck", experiments.Options{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain err = %v, want ErrDraining", err)
	}
}

// TestCacheHitNotBehindColdJob: with the lone in-process worker parked on
// a cold cell, a cache hit for another cell still finishes at once — hits
// never wait for a worker.
func TestCacheHitNotBehindColdJob(t *testing.T) {
	release := make(chan struct{})
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers: 1,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners: []experiments.Runner{blockingRunner("block", release), blockingRunner("fast", closed())},
			Cache:   cache,
		}),
	})
	defer drain(t, s)
	defer close(release) // runs before the drain, so the cold job completes

	mustFinish(t, s, "fast", experiments.Options{}) // cache the cell

	cold, err := s.Submit("block", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, cold.ID(), StateRunning)
	hit, err := s.Submit("fast", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hit.Done():
	case <-time.After(2 * time.Second):
		v, _ := s.View(hit.ID())
		t.Fatalf("cache hit still %s after 2s behind a running cold job", v.State)
	}
	if v, _ := s.View(hit.ID()); v.State != StateSucceeded || !v.CacheHit {
		t.Fatalf("hit view = %s (cache hit %v), want a succeeded cache hit", v.State, v.CacheHit)
	}
}

// TestDrainDeadlineKeepsManifests: a job cancelled at the drain deadline
// has its manifest in the ledger by the time Drain returns.
func TestDrainDeadlineKeepsManifests(t *testing.T) {
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	s := New(Config{
		Workers:     1,
		Ledger:      store,
		Coordinator: coordinator(blockingRunner("stuck", release)),
	})
	job, err := s.Submit("stuck", experiments.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID(), StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	m, _, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no manifest for the job cancelled at the drain deadline")
	}
	rec, ok := m.Experiment("stuck")
	if !ok || rec.Error == "" || m.Scale.Seed != 9 {
		t.Fatalf("manifest = %+v, want the cancelled stuck job with its reason", m)
	}
}

// TestDrainRacingSubmits: submissions racing a drain either fail with
// ErrDraining or have their manifest in the ledger when Drain returns.
func TestDrainRacingSubmits(t *testing.T) {
	dir := t.TempDir()
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers: 1,
		Ledger:  store,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners: []experiments.Runner{blockingRunner("fast", closed())},
			Cache:   cache,
		}),
	})
	mustFinish(t, s, "fast", experiments.Options{}) // cached: every racing submit is a hit
	var accepted atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.Submit("fast", experiments.Options{}); err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("submit: %v", err)
					}
					return
				}
				accepted.Add(1)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); accepted.Load() < 8 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	drain(t, s)
	index, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got, want := bytes.Count(index, []byte("\n")), 1+int(accepted.Load()); got != want {
		t.Fatalf("ledger holds %d manifests when Drain returned, want one per accepted job (%d)", got, want)
	}
}

func TestSchedulerCacheHitTelemetry(t *testing.T) {
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(0)
	s := New(Config{Workers: 2, Coordinator: cluster.NewCoordinator(cluster.Config{Cache: cache, Hub: hub})})
	defer drain(t, s)

	o := experiments.Options{GCs: 1, Seed: 42, Quick: true, Shrink: 8}
	j1 := mustFinish(t, s, "table1", o)
	j2 := mustFinish(t, s, "table1", o)
	if j1.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if !j2.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if string(j1.Report) != string(j2.Report) {
		t.Fatalf("cache hit not byte-identical:\n first %s\nsecond %s", j1.Report, j2.Report)
	}

	reg := hub.Snapshot()
	for name, want := range map[string]float64{
		"cluster.jobs.submitted":    2,
		"cluster.jobs.completed":    2,
		"cluster.jobs.cachehits":    1,
		"cluster.job.latency.count": 2,
		"resultcache.hits":          1,
		"resultcache.misses":        1,
	} {
		got, ok := reg.Value(name)
		if !ok || got != want {
			t.Errorf("%s = %v, %v; want %v", name, got, ok, want)
		}
	}
	if v, ok := reg.Value("resultcache.hitrate"); !ok || v != 0.5 {
		t.Errorf("resultcache.hitrate = %v, %v; want 0.5", v, ok)
	}
}

func mustFinish(t *testing.T, s *Scheduler, id string, o experiments.Options) View {
	t.Helper()
	job, err := s.Submit(id, o)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	v, _ := s.View(job.ID())
	if v.State != StateSucceeded {
		t.Fatalf("job %s state = %s (%s), want succeeded", job.ID(), v.State, v.Error)
	}
	return v
}

func waitState(t *testing.T, s *Scheduler, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := s.View(id); ok && v.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	v, _ := s.View(id)
	t.Fatalf("job %s never reached %s (last state %s)", id, want, v.State)
}
