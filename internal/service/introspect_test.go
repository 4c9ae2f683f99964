package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/ledger"
	"hwgc/internal/resultcache"
)

// beatRunner drives the job's progress heartbeat the way a real simulation
// does (o.Beat rides Options into the built systems), then parks until
// released — so a test can observe progress mid-flight deterministically.
func beatRunner(id string, cycles uint64, release <-chan struct{}) experiments.Runner {
	return experiments.Runner{
		ID:    id,
		Title: "beat runner " + id,
		Run: func(o experiments.Options) (experiments.Report, error) {
			o.Beat.Add(cycles)
			<-release
			rep := experiments.Report{ID: id}
			rep.Metric("cycles", float64(cycles))
			return rep, nil
		},
	}
}

func TestProgressAdvancesWhileJobRuns(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, Coordinator: coordinator(beatRunner("beaty", 1234, release))})
	defer drain(t, s)

	job, err := s.Submit("beaty", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The heartbeat must advance while the job is still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, ok := s.Progress(job.ID())
		if !ok {
			t.Fatal("progress lost the job")
		}
		if p.State == StateRunning && p.CyclesSimulated == 1234 {
			if p.Started == nil || p.RunningMS < 0 {
				t.Fatalf("running progress missing timing: %+v", p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress never advanced: %+v", p)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-job.Done()
	p, _ := s.Progress(job.ID())
	if p.State != StateSucceeded || p.CyclesSimulated != 1234 {
		t.Fatalf("final progress = %+v", p)
	}
}

// TestProgressAdvancesDuringRealSimulation exercises the full beat plumbing:
// Options.Beat -> experiment config -> engine probe / software collector,
// via a real (tiny) experiment run through the scheduler.
func TestProgressAdvancesDuringRealSimulation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	o := experiments.Options{GCs: 1, Seed: 42, Quick: true, Shrink: 64}
	v := mustFinish(t, s, "abl-layout", o)
	p, ok := s.Progress(v.ID)
	if !ok {
		t.Fatal("no progress for finished job")
	}
	if p.CyclesSimulated == 0 {
		t.Fatal("real simulation advanced no cycles on the heartbeat")
	}
}

func TestMetricsEndpointsAlwaysOn(t *testing.T) {
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	// No hub configured: the coordinator's own fallback hub serves both
	// endpoints — the old 404 is gone.
	s := New(Config{Workers: 1, Coordinator: cluster.NewCoordinator(cluster.Config{Cache: cache})})
	defer drain(t, s)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	mustFinish(t, s, "table1", experiments.Options{GCs: 1, Seed: 42, Quick: true, Shrink: 8})

	body, ct := get(t, srv.URL+"/v1/metrics", http.StatusOK)
	if !strings.Contains(ct, "application/json") {
		t.Errorf("/v1/metrics content type = %q", ct)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("/v1/metrics is not JSON: %v\n%s", err, body)
	}
	for _, want := range []string{"cluster.jobs.submitted", "cluster.jobs.pending",
		"cluster.leases.active", "resultcache.hits"} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}

	body, ct = get(t, srv.URL+"/metrics", http.StatusOK)
	if !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE hwgc_cluster_jobs_pending gauge",
		"hwgc_cluster_jobs_completed 1",
		"hwgc_resultcache_hits 0",
		"hwgc_resultcache_misses 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestProgressEndpoint(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, Coordinator: coordinator(beatRunner("beaty", 77, release))})
	defer drain(t, s)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	job, err := s.Submit("beaty", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID(), StateRunning)

	body, _ := get(t, srv.URL+"/v1/jobs/"+job.ID()+"/progress", http.StatusOK)
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if p.ID != job.ID() || p.State != StateRunning {
		t.Fatalf("progress = %+v", p)
	}
	waitCycles := time.Now().Add(5 * time.Second)
	for p.CyclesSimulated != 77 {
		if time.Now().After(waitCycles) {
			t.Fatalf("endpoint never showed the heartbeat: %+v", p)
		}
		body, _ = get(t, srv.URL+"/v1/jobs/"+job.ID()+"/progress", http.StatusOK)
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatal(err)
		}
	}
	close(release)

	get(t, srv.URL+"/v1/jobs/nope/progress", http.StatusNotFound)
}

func TestPprofOptIn(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	plain := httptest.NewServer(NewHandler(s))
	defer plain.Close()
	// Without the opt-in wrapper, profiling endpoints do not exist.
	resp, err := http.Get(plain.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without opt-in")
	}

	wrapped := httptest.NewServer(withPprof(NewHandler(s)))
	defer wrapped.Close()
	get(t, wrapped.URL+"/debug/pprof/cmdline", http.StatusOK)
	// The API still works through the wrapper.
	get(t, wrapped.URL+"/v1/experiments", http.StatusOK)
}

func TestSchedulerLedgerAppendsPerJob(t *testing.T) {
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	close(release) // run immediately
	s := New(Config{
		Workers:     1,
		Ledger:      store,
		Coordinator: coordinator(beatRunner("beaty", 9, release)),
	})
	defer drain(t, s)
	mustFinish(t, s, "beaty", experiments.Options{GCs: 1, Seed: 7, Quick: true})

	m, _, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no manifest appended for the finished job")
	}
	if m.Tool != "hwgc-serve" || m.Scale.Seed != 7 || !m.Scale.Quick {
		t.Fatalf("manifest = %+v", m)
	}
	rec, ok := m.Experiment("beaty")
	if !ok {
		t.Fatalf("manifest missing the job's experiment: %+v", m.Experiments)
	}
	if rec.CellKey == "" || rec.Metrics["cycles"] != 9 {
		t.Fatalf("experiment record = %+v", rec)
	}
}

// get fetches url, asserts the status, and returns body and content type.
func get(t *testing.T, url string, wantStatus int) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d\n%s", url, resp.StatusCode, wantStatus, b)
	}
	return string(b), resp.Header.Get("Content-Type")
}
