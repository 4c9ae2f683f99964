package service

// Cluster-mode service tests: the Dispatch hook routing jobs to a
// coordinator, finished-job eviction (410 vs 404), and the daemon's
// graceful drain while leased cluster jobs are in flight.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/telemetry"
)

func TestSchedulerDispatchMode(t *testing.T) {
	rep, err := experiments.EncodeReport(experiments.Report{ID: "fast", Rows: []string{"remote row"}})
	if err != nil {
		t.Fatal(err)
	}
	fast := experiments.Runner{
		ID: "fast", Title: "dispatched",
		Run: func(o experiments.Options) (experiments.Report, error) {
			return experiments.Report{}, errors.New("must not run locally in dispatch mode")
		},
	}
	dispatched := 0
	s := New(Config{
		Workers: 1,
		Runners: []experiments.Runner{fast},
		Dispatch: func(ctx context.Context, experiment string, o experiments.Options) (DispatchResult, error) {
			dispatched++
			if experiment != "fast" {
				return DispatchResult{}, errors.New("wrong experiment " + experiment)
			}
			return DispatchResult{Report: rep, Worker: "remote-1", CacheHit: true, Attempts: 1}, nil
		},
	})
	defer drain(t, s)

	v := mustFinish(t, s, "fast", experiments.QuickOptions())
	if dispatched != 1 {
		t.Fatalf("dispatch calls = %d, want 1", dispatched)
	}
	if v.Worker != "remote-1" || !v.CacheHit {
		t.Fatalf("view = worker %q cacheHit %v, want remote-1 attribution", v.Worker, v.CacheHit)
	}
	if string(v.Report) != string(rep) {
		t.Fatalf("report = %s, want the dispatched payload", v.Report)
	}
}

func TestSchedulerDispatchFailureAndTimeout(t *testing.T) {
	noop := experiments.Runner{ID: "x", Title: "never local",
		Run: func(o experiments.Options) (experiments.Report, error) {
			return experiments.Report{}, errors.New("local run in dispatch mode")
		}}
	s := New(Config{
		Workers: 1,
		Runners: []experiments.Runner{noop},
		Dispatch: func(ctx context.Context, experiment string, o experiments.Options) (DispatchResult, error) {
			return DispatchResult{Worker: "w"}, errors.New("remote attempt exhausted")
		},
	})
	job, err := s.Submit("x", experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if v, _ := s.View(job.ID()); v.State != StateFailed || v.Error == "" {
		t.Fatalf("dispatch failure view = %+v, want failed with error", v)
	}
	drain(t, s)

	// A dispatch blocked past JobTimeout is cancelled, not failed.
	s2 := New(Config{
		Workers:    1,
		JobTimeout: 20 * time.Millisecond,
		Runners:    []experiments.Runner{noop},
		Dispatch: func(ctx context.Context, experiment string, o experiments.Options) (DispatchResult, error) {
			<-ctx.Done()
			return DispatchResult{}, ctx.Err()
		},
	})
	defer drain(t, s2)
	job2, err := s2.Submit("x", experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job2.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("timed-out dispatch never finished")
	}
	if v, _ := s2.View(job2.ID()); v.State != StateCancelled {
		t.Fatalf("timed-out dispatch state = %s, want cancelled", v.State)
	}
}

func TestFinishedJobEviction(t *testing.T) {
	release := make(chan struct{})
	close(release) // runners return immediately
	s := New(Config{
		Workers:        1,
		RetainFinished: 1,
		Runners:        []experiments.Runner{blockingRunner("fast", release)},
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
		Workers:        1,
		RetainFinished: 1,
		Runners:        []experiments.Runner{blockingRunner("fast", release)},
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

// TestDaemonDrainWithClusterJobs is satellite 3: a daemon in cluster mode
// (scheduler dispatching to a coordinator with a loopback worker) receives
// shutdown while a leased job is mid-execution. The drain must let the
// lease finish and commit, and Run must return nil — the clean-exit-0 path.
func TestDaemonDrainWithClusterJobs(t *testing.T) {
	release := make(chan struct{})
	runners := []experiments.Runner{blockingRunner("slow", release)}
	hub := telemetry.NewHub(0)
	coord := cluster.NewCoordinator(cluster.Config{Runners: runners, LeaseTTL: time.Hour})
	pool, err := cluster.StartLoopbackWorkers(coord, 1, cluster.WorkerConfig{
		Name: "local", Runners: runners, PollEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		Workers: 1,
		Runners: runners,
		Hub:     hub,
		Dispatch: func(ctx context.Context, experiment string, o experiments.Options) (DispatchResult, error) {
			out, err := coord.Dispatch(ctx, experiment, o)
			return DispatchResult(out), err
		},
		PromAppend: coord.WritePrometheus,
	})
	d := &Daemon{
		Addr: "127.0.0.1:0", Scheduler: s, Hub: hub, DrainTimeout: 20 * time.Second,
		OnDrain: func(ctx context.Context) {
			_ = coord.Drain(ctx)
			_ = pool.Stop()
			coord.Close()
		},
	}
	base, stop := startDaemon(t, d)

	resp, body := postJob(t, base, `{"experiment":"slow","options":{"Quick":true}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	// Wait until the loopback worker holds the lease, then begin shutdown
	// with the job genuinely in flight.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().ActiveLeases == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if coord.Status().ActiveLeases == 0 {
		t.Fatal("job never leased to the loopback worker")
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
	if view.Worker != "local-0" {
		t.Fatalf("worker attribution = %q, want local-0", view.Worker)
	}

	// The per-worker series the coordinator appends to /metrics survived the
	// whole lifecycle (rendered under the coordinator lock, post-drain).
	st := coord.Status()
	if len(st.Workers) == 0 && st.Completed != 1 {
		t.Fatalf("coordinator status after drain = %+v, want 1 completed job", st)
	}
}
