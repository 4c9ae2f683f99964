package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

// startDaemon runs d until the test ends (or stop is called) and returns
// its base URL plus a stop func that cancels the context and reports Run's
// error.
func startDaemon(t *testing.T, d *Daemon) (base string, stop func() error) {
	t.Helper()
	if err := d.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()

	stopped := false
	stop = func() error {
		stopped = true
		cancel()
		select {
		case err := <-runErr:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
			return nil
		}
	}
	t.Cleanup(func() {
		if !stopped {
			_ = stop()
		}
	})
	return "http://" + d.ListenAddr(), stop
}

func postJob(t *testing.T, base string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestServiceCacheHitIntegration is the PR's acceptance test: the same cell
// submitted twice through the HTTP API is served from the cache the second
// time with a byte-identical report payload, and the cache and latency
// metrics are visible through the telemetry registry.
func TestServiceCacheHitIntegration(t *testing.T) {
	cache, err := resultcache.New(16, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(0)
	s := New(Config{Workers: 2, Coordinator: cluster.NewCoordinator(cluster.Config{Cache: cache, Hub: hub})})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: 10 * time.Second}
	base, stop := startDaemon(t, d)

	const body = `{"experiment":"table1","options":{"GCs":1,"Seed":42,"Quick":true,"Shrink":8},"wait":true}`
	resp1, b1 := postJob(t, base, body)
	resp2, b2 := postJob(t, base, body)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, %d; want 200, 200\n%s\n%s", resp1.StatusCode, resp2.StatusCode, b1, b2)
	}
	var v1, v2 View
	if err := json.Unmarshal(b1, &v1); err != nil {
		t.Fatalf("response 1: %v\n%s", err, b1)
	}
	if err := json.Unmarshal(b2, &v2); err != nil {
		t.Fatalf("response 2: %v\n%s", err, b2)
	}
	if v1.State != StateSucceeded || v2.State != StateSucceeded {
		t.Fatalf("states = %s, %s; want succeeded (errors: %q, %q)", v1.State, v2.State, v1.Error, v2.Error)
	}
	if v1.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	if !v2.CacheHit {
		t.Fatal("second submission was not a cache hit")
	}
	if v1.CacheKey != v2.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", v1.CacheKey, v2.CacheKey)
	}
	if !bytes.Equal(v1.Report, v2.Report) {
		t.Fatalf("cache-hit report is not byte-identical:\n first %s\nsecond %s", v1.Report, v2.Report)
	}
	if len(v1.Report) == 0 {
		t.Fatal("empty report payload")
	}

	// Metrics are visible both on the hub and through the API.
	reg := hub.Snapshot()
	if v, ok := reg.Value("cluster.jobs.cachehits"); !ok || v != 1 {
		t.Errorf("cluster.jobs.cachehits = %v, %v; want 1", v, ok)
	}
	if v, ok := reg.Value("cluster.job.latency.count"); !ok || v != 2 {
		t.Errorf("cluster.job.latency.count = %v, %v; want 2", v, ok)
	}
	if v, ok := reg.Value("resultcache.hitrate"); !ok || v != 0.5 {
		t.Errorf("resultcache.hitrate = %v, %v; want 0.5", v, ok)
	}
	mresp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !bytes.Contains(mb, []byte("resultcache.hits")) {
		t.Fatalf("/v1/metrics = %d\n%s", mresp.StatusCode, mb)
	}

	if err := stop(); err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
}

// TestServiceGracefulShutdown drives the full drain sequence over HTTP:
// an in-flight job completes during the drain, submissions made while
// draining get 503, and Run returns nil (clean exit).
func TestServiceGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Workers:     1,
		Coordinator: coordinator(blockingRunner("block", release)),
	})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: 10 * time.Second}
	base, stop := startDaemon(t, d)

	resp, b := postJob(t, base, `{"experiment":"block"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, b)
	}
	var submitted View
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, submitted.ID, StateRunning)

	// Begin shutdown concurrently; the daemon drains while the job runs.
	stopErr := make(chan error, 1)
	go func() { stopErr <- stop() }()

	// The scheduler flips to draining quickly; until the drain finishes the
	// HTTP server still answers, rejecting new jobs with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, b = postJob(t, base, `{"experiment":"block"}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !bytes.Contains(b, []byte("draining")) {
				t.Fatalf("503 body does not mention draining: %s", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never rejected with 503 (last: %d %s)", resp.StatusCode, b)
		}
		time.Sleep(time.Millisecond)
	}

	// Let the in-flight job finish; the drain then completes cleanly.
	close(release)
	if err := <-stopErr; err != nil {
		t.Fatalf("Run returned %v, want nil (clean drain)", err)
	}
	v, _ := s.View(submitted.ID)
	if v.State != StateSucceeded {
		t.Fatalf("in-flight job state after drain = %s, want succeeded", v.State)
	}
}

// TestServiceUnknownExperimentHTTP checks the 400 contract: the body names
// the bad ID and lists every valid one.
func TestServiceUnknownExperimentHTTP(t *testing.T) {
	s := New(Config{Workers: 1})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: time.Second}
	base, _ := startDaemon(t, d)

	resp, b := postJob(t, base, `{"experiment":"figNaN"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", resp.StatusCode, b)
	}
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "figNaN") {
		t.Fatalf("error does not name the bad ID: %s", e.Error)
	}
	want := map[string]bool{"table1": false, "fig20": false}
	for _, id := range e.ValidExperiments {
		if _, ok := want[id]; ok {
			want[id] = true
		}
	}
	for id, seen := range want {
		if !seen {
			t.Fatalf("validExperiments missing %s: %v", id, e.ValidExperiments)
		}
	}

	// Unknown job IDs 404.
	jr, err := http.Get(base + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", jr.StatusCode)
	}

	// The experiment listing serves every runner.
	er, err := http.Get(base + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	eb, _ := io.ReadAll(er.Body)
	er.Body.Close()
	var exps []struct{ ID, Title string }
	if err := json.Unmarshal(eb, &exps); err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(experiments.All()) {
		t.Fatalf("experiments listed = %d, want %d", len(exps), len(experiments.All()))
	}
}

// TestServiceJobReportHTTP drives the HTML report endpoint through every
// branch: 404 for unknown jobs, 409 while a job is still running, and a
// complete self-contained HTML document once the job finishes.
func TestServiceJobReportHTTP(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Workers:     1,
		Coordinator: coordinator(blockingRunner("block", release)),
	})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: 10 * time.Second}
	base, _ := startDaemon(t, d)

	get := func(path string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type"), b
	}

	if code, _, _ := get("/v1/jobs/job-999999/report"); code != http.StatusNotFound {
		t.Fatalf("report for unknown job = %d, want 404", code)
	}

	resp, b := postJob(t, base, `{"experiment":"block"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, b)
	}
	var submitted View
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, submitted.ID, StateRunning)

	if code, _, body := get("/v1/jobs/" + submitted.ID + "/report"); code != http.StatusConflict {
		t.Fatalf("report for running job = %d, want 409\n%s", code, body)
	}

	close(release)
	waitState(t, s, submitted.ID, StateSucceeded)

	code, ctype, body := get("/v1/jobs/" + submitted.ID + "/report")
	if code != http.StatusOK {
		t.Fatalf("report for finished job = %d, want 200\n%s", code, body)
	}
	if !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("Content-Type = %q, want text/html", ctype)
	}
	for _, want := range []string{"<!DOCTYPE html>", "hwgc run report", "block", "hwgc-serve"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("report HTML missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsScrapeDuringColdRun scrapes /v1/metrics and /metrics in a loop
// while a cold fig16 job simulates, with the wiring hwgc-serve uses (one
// hub for the coordinator, the cache, and the endpoints). Under -race this
// guards the daemon's contract that serving metrics never reads state a
// running simulation writes: jobs' simulations are not instrumented.
func TestMetricsScrapeDuringColdRun(t *testing.T) {
	cache, err := resultcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(0)
	s := New(Config{Workers: 1, Coordinator: cluster.NewCoordinator(cluster.Config{Cache: cache, Hub: hub})})
	d := &Daemon{Addr: "127.0.0.1:0", Scheduler: s, DrainTimeout: 30 * time.Second}
	base, stop := startDaemon(t, d)

	done := make(chan View, 1)
	go func() {
		const body = `{"experiment":"fig16","options":{"GCs":1,"Seed":42,"Quick":true,"Shrink":32},"wait":true}`
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		var v View
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
		}
		if err != nil {
			v.Error = err.Error()
		}
		done <- v
	}()

	scrapes := 0
	for running := true; running; {
		select {
		case v := <-done:
			if v.State != StateSucceeded || v.CacheHit {
				t.Fatalf("job = %s (cache hit %v, error %q), want a cold success", v.State, v.CacheHit, v.Error)
			}
			running = false
		default:
		}
		for _, path := range []string{"/v1/metrics", "/metrics"} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte("cluster")) {
				t.Fatalf("GET %s = %d\n%s", path, resp.StatusCode, b)
			}
			scrapes++
		}
	}
	if scrapes < 4 {
		t.Fatalf("only %d scrapes overlapped the run", scrapes)
	}
	if err := stop(); err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
}
