package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
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
	s := New(Config{
		Workers:     1,
		QueueDepth:  1,
		Coordinator: coordinator(blockingRunner("block", release)),
	})
	defer drain(t, s)

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
	close(release)
}

func TestJobTimeoutCancels(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // let the detached sim goroutine exit
	s := New(Config{
		Workers:     1,
		JobTimeout:  20 * time.Millisecond,
		Coordinator: coordinator(blockingRunner("stuck", release)),
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
		"service.jobs.submitted":    2,
		"service.jobs.completed":    2,
		"service.jobs.cachehits":    1,
		"service.job.latency.count": 2,
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
