package service

// Coordinator-path service tests: attribution and retries through the
// in-process workers, finished-job eviction (410 vs 404), the daemon's
// graceful drain while a leased job is in flight, and a remote worker
// joining a default daemon over /cluster/v1/.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
)

// TestSchedulerDispatchMode pins attribution: a cold cell is committed by
// an in-process worker after one lease grant, and the repeat is a
// coordinator cache hit that never reaches a worker.
func TestSchedulerDispatchMode(t *testing.T) {
	var runs atomic.Int32
	fast := experiments.Runner{
		ID: "fast", Title: "dispatched",
		Run: func(o experiments.Options) (experiments.Report, error) {
			runs.Add(1)
			return experiments.Report{ID: "fast", Rows: []string{"local row"}}, nil
		},
	}
	rep, err := experiments.EncodeReport(experiments.Report{ID: "fast", Rows: []string{"local row"}})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers:     1,
		Coordinator: cluster.NewCoordinator(cluster.Config{Runners: []experiments.Runner{fast}, Cache: cache}),
	})
	defer drain(t, s)

	v := mustFinish(t, s, "fast", experiments.QuickOptions())
	if v.Worker != "local-0" || v.Attempts != 1 || v.Retries != 0 || v.CacheHit {
		t.Fatalf("cold view = worker %q attempts %d retries %d cacheHit %v, want local-0 after 1 attempt",
			v.Worker, v.Attempts, v.Retries, v.CacheHit)
	}
	if string(v.Report) != string(rep) {
		t.Fatalf("report = %s, want the runner's payload", v.Report)
	}

	hit := mustFinish(t, s, "fast", experiments.QuickOptions())
	if !hit.CacheHit || hit.Worker != "" || hit.Attempts != 0 {
		t.Fatalf("repeat view = worker %q attempts %d cacheHit %v, want a coordinator cache hit",
			hit.Worker, hit.Attempts, hit.CacheHit)
	}
	if string(hit.Report) != string(rep) {
		t.Fatalf("cache-hit report = %s, want byte-identical %s", hit.Report, rep)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("runner ran %d times, want 1", n)
	}
}

// TestSchedulerDispatchFailureAndTimeout: a failing runner is retried
// until MaxAttempts grants are spent, then the job fails with the runner's
// message; a runner parked past JobTimeout ends cancelled.
func TestSchedulerDispatchFailureAndTimeout(t *testing.T) {
	var runs atomic.Int32
	failing := experiments.Runner{ID: "x", Title: "always fails",
		Run: func(o experiments.Options) (experiments.Report, error) {
			runs.Add(1)
			return experiments.Report{}, errors.New("remote attempt exhausted")
		}}
	s := New(Config{
		Workers: 1,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners:     []experiments.Runner{failing},
			MaxAttempts: 3,
			RetryBase:   time.Millisecond,
		}),
	})
	job, err := s.Submit("x", experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("failing job never finished")
	}
	v, _ := s.View(job.ID())
	if v.State != StateFailed || !strings.Contains(v.Error, "remote attempt exhausted") {
		t.Fatalf("failure view = %s %q, want failed with the runner's message", v.State, v.Error)
	}
	if v.Attempts != 3 || v.Retries != 2 || v.Worker != "local-0" || runs.Load() != 3 {
		t.Fatalf("failure attribution = worker %q attempts %d retries %d runs %d, want local-0, 3, 2, 3",
			v.Worker, v.Attempts, v.Retries, runs.Load())
	}
	drain(t, s)

	// A runner parked past JobTimeout is cancelled, not failed.
	release := make(chan struct{})
	defer close(release)
	s2 := New(Config{
		Workers: 1,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners:    []experiments.Runner{blockingRunner("x", release)},
			JobTimeout: 20 * time.Millisecond,
		}),
	})
	defer drain(t, s2)
	job2, err := s2.Submit("x", experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job2.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("timed-out job never finished")
	}
	if v, _ := s2.View(job2.ID()); v.State != StateCancelled {
		t.Fatalf("timed-out job state = %s, want cancelled", v.State)
	}
}

func TestFinishedJobEviction(t *testing.T) {
	release := make(chan struct{})
	close(release) // runners return immediately
	s := New(Config{
		Workers: 1,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners:        []experiments.Runner{blockingRunner("fast", release)},
			RetainFinished: 1,
		}),
	})
	defer drain(t, s)

	v1 := mustFinish(t, s, "fast", experiments.Options{})
	v2 := mustFinish(t, s, "fast", experiments.Options{})

	if _, ok := s.View(v1.ID); ok {
		t.Fatalf("job %s still in the table past RetainFinished", v1.ID)
	}
	if !s.Evicted(v1.ID) {
		t.Fatalf("job %s not recorded as evicted", v1.ID)
	}
	if _, ok := s.View(v2.ID); !ok {
		t.Fatalf("latest finished job %s was evicted", v2.ID)
	}
	if s.Evicted("job-999999") {
		t.Fatal("never-submitted ID reported as evicted")
	}
	views := s.Views()
	if len(views) != 1 || views[0].ID != v2.ID {
		t.Fatalf("views = %+v, want only %s", views, v2.ID)
	}
}

// TestJobMissHTTPStatus pins the API contract for missing jobs: evicted
// IDs answer 410 Gone, never-seen IDs 404, both as JSON, on all three
// per-job endpoints.
func TestJobMissHTTPStatus(t *testing.T) {
	release := make(chan struct{})
	close(release)
	s := New(Config{
		Workers: 1,
		Coordinator: cluster.NewCoordinator(cluster.Config{
			Runners:        []experiments.Runner{blockingRunner("fast", release)},
			RetainFinished: 1,
		}),
	})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: 10 * time.Second}
	base, _ := startDaemon(t, d)

	evicted := mustFinish(t, s, "fast", experiments.Options{}).ID
	mustFinish(t, s, "fast", experiments.Options{})

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("%s: non-JSON error body %q: %v", path, b, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), e.Error
	}
	for _, suffix := range []string{"", "/progress", "/report"} {
		status, ct, msg := get("/v1/jobs/" + evicted + suffix)
		if status != http.StatusGone || ct != "application/json" || msg == "" {
			t.Errorf("evicted %s%s = %d %q %q, want 410 application/json", evicted, suffix, status, ct, msg)
		}
		status, ct, msg = get("/v1/jobs/job-999999" + suffix)
		if status != http.StatusNotFound || ct != "application/json" || msg == "" {
			t.Errorf("unknown job%s = %d %q %q, want 404 application/json", suffix, status, ct, msg)
		}
	}
}

// TestDaemonDrainWithClusterJobs: a daemon receives shutdown while a job
// is leased to an in-process worker mid-execution. The drain must let the
// lease finish and commit, and Run must return nil — the clean-exit-0
// path.
func TestDaemonDrainWithClusterJobs(t *testing.T) {
	release := make(chan struct{})
	coord := cluster.NewCoordinator(cluster.Config{
		Runners:  []experiments.Runner{blockingRunner("slow", release)},
		LeaseTTL: time.Hour,
	})
	s := New(Config{Workers: 1, Coordinator: coord})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: 20 * time.Second}
	base, stop := startDaemon(t, d)

	resp, body := postJob(t, base, `{"experiment":"slow","options":{"Quick":true}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	// Wait until the in-process worker holds the lease, then begin
	// shutdown with the job genuinely in flight.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().ActiveLeases == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if coord.Status().ActiveLeases == 0 {
		t.Fatal("job never leased to the in-process worker")
	}

	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	select {
	case err := <-stopped:
		t.Fatalf("daemon exited with the lease still executing: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after the lease completed")
	}

	view, ok := s.View(v.ID)
	if !ok {
		t.Fatalf("job %s missing after drain", v.ID)
	}
	if view.State != StateSucceeded {
		t.Fatalf("job state after drain = %s (%s), want succeeded", view.State, view.Error)
	}
	if view.Worker != "local-0" || view.Attempts != 1 {
		t.Fatalf("attribution = worker %q attempts %d, want local-0 after 1 attempt", view.Worker, view.Attempts)
	}
	if st := coord.Status(); st.Completed != 1 {
		t.Fatalf("coordinator status after drain = %+v, want 1 completed job", st)
	}
}

// TestRemoteWorkerJoinsDefaultDaemon: a daemon built with no cluster
// options still serves /cluster/v1/, so a remote worker registers over
// HTTP and commits a lease while the in-process worker is busy.
func TestRemoteWorkerJoinsDefaultDaemon(t *testing.T) {
	release := make(chan struct{})
	runners := []experiments.Runner{blockingRunner("block", release), blockingRunner("fast", closed())}
	coord := cluster.NewCoordinator(cluster.Config{Runners: runners})
	s := New(Config{Workers: 1, Coordinator: coord})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: 10 * time.Second}
	base, stop := startDaemon(t, d)

	// Occupy the lone in-process worker.
	blocked, err := s.Submit("block", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().ActiveLeases == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "remote", Client: &cluster.HTTPClient{Base: base},
		Runners: runners, PollEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan error, 1)
	go func() { exited <- w.Run(ctx) }()

	job, err := coord.Submit(cluster.NewJobSpec("fast", experiments.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("remote worker never committed the job")
	}
	if res := job.Result(); res.State != cluster.JobSucceeded || res.Worker != "remote" {
		t.Fatalf("result = %+v, want success committed by the remote worker", res)
	}
	resp, err := http.Get(base + "/cluster/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"name":"remote"`) {
		t.Fatalf("/cluster/v1/status = %d\n%s", resp.StatusCode, b)
	}

	close(release)
	<-blocked.Done()
	cancel()
	if err := <-exited; err != nil {
		t.Fatalf("remote worker: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
}

// closed returns an already-closed channel, for runners that never park.
func closed() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}
