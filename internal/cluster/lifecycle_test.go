package cluster

// The golden lifecycle test: one coordinator driven through a fixed script
// that touches every job state change the control plane has — submit, cache
// hit, lease, lease expiry with backoff and re-lease, worker error and
// retry, commit with a worker-shipped span, duplicate completion, cancel,
// failure at MaxAttempts, and worker expiry. Its four read surfaces (the
// trace export, the rendered fleet trace, the status body and the federated
// metrics) are compared with checked-in goldens after normalising the
// wall-clock parts away: span and parent IDs become roles, timestamps
// become the index of the script step they fell in, flight events lose
// their atUs, and workers lose their lastSeenMs.
//
//	go test ./internal/cluster -run TestLifecycleGolden -update   # rewrite

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/report"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// lifecycleScript records the wall-clock start of each script step, so a
// timestamp can be replaced by the index of the step it fell in. Each step
// sits 2 ms clear of its neighbours on both sides; the longest backoff the
// script schedules is 1 ms, so a backoff ends inside the step that began it.
type lifecycleScript struct {
	t      *testing.T
	bounds []int64 // Unix µs at which each step began
}

func (s *lifecycleScript) step(action func()) {
	s.bounds = append(s.bounds, time.Now().UnixMicro())
	time.Sleep(2 * time.Millisecond)
	action()
	time.Sleep(2 * time.Millisecond)
}

// stepOf maps a Unix-µs timestamp to the script step it fell in.
func (s *lifecycleScript) stepOf(us int64) int64 {
	i := sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i] > us })
	if i == 0 {
		s.t.Fatalf("timestamp %d precedes the script", us)
	}
	return int64(i - 1)
}

// spanRole names a span by what it is rather than by its minted ID: its
// name plus the attempt it belongs to, or, for spans without an attempt
// (the root, worker-side spans), its name under its parent's role.
func spanRoles(spans []telemetry.Span) map[[2]string]string {
	roles := map[[2]string]string{}
	for _, s := range spans {
		if a, ok := s.Attrs["attempt"]; ok {
			roles[[2]string{s.TraceID, s.SpanID}] = s.Name + "#" + a
		} else if s.Parent == "" {
			roles[[2]string{s.TraceID, s.SpanID}] = s.Name
		}
	}
	for _, s := range spans {
		key := [2]string{s.TraceID, s.SpanID}
		if _, ok := roles[key]; !ok {
			roles[key] = s.Name + "<" + roles[[2]string{s.TraceID, s.Parent}]
		}
	}
	return roles
}

// normaliseTrace rewrites a trace export into its wall-clock-free form.
func (s *lifecycleScript) normaliseTrace(exp TraceExport) TraceExport {
	roles := spanRoles(exp.Spans)
	unrecorded := map[[2]string]string{}
	role := func(trace, id string) string {
		if id == "" {
			return ""
		}
		key := [2]string{trace, id}
		if r, ok := roles[key]; ok {
			return r
		}
		// A parent that never closed (the root of a job still open).
		if _, ok := unrecorded[key]; !ok {
			unrecorded[key] = fmt.Sprintf("unrecorded#%d", len(unrecorded)+1)
		}
		return unrecorded[key]
	}
	for i, sp := range exp.Spans {
		start, end := s.stepOf(sp.StartUS), s.stepOf(sp.StartUS+sp.DurUS)
		sp.SpanID, sp.Parent = role(sp.TraceID, sp.SpanID), role(sp.TraceID, sp.Parent)
		sp.StartUS, sp.DurUS = start, end-start
		exp.Spans[i] = sp
	}
	for i := range exp.Events {
		exp.Events[i].AtUS = 0
	}
	return exp
}

// get serves one GET through the coordinator's HTTP handler.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// checkGolden compares got with testdata/lifecycle/name, or rewrites it.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "lifecycle", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (run with -update to see the diff in git):\n%s", name, got)
	}
}

func TestLifecycleGolden(t *testing.T) {
	var runners []experiments.Runner
	for _, id := range []string{"a", "b", "c", "d", "h"} {
		runners = append(runners, fastRunner(id))
	}
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.QuickOptions()
	hitSpec := NewJobSpec("h", o)
	hitKey, _ := parseCacheKey(hitSpec.CacheKey)
	if err := cache.Put(hitKey, encodedReport(t, "h")); err != nil {
		t.Fatal(err)
	}
	// Leases and workers expire only when the script forces it; the retry
	// backoff is at most 1 ms.
	c := testCoordinator(t, Config{
		Runners:      runners,
		LeaseTTL:     time.Hour,
		WorkerExpiry: time.Hour,
		MaxAttempts:  2,
		RetryBase:    time.Millisecond,
		Cache:        cache,
		Spans:        telemetry.NewWallSpans(),
	})
	h := NewHTTPHandler(c)
	s := &lifecycleScript{t: t}

	var alpha, beta RegisterResponse
	var jobA, jobB, jobC, jobD *Job
	var l *Lease
	// Each job claims its own affinity (the synthetic runners would all
	// share one), so the script decides who owns what.
	submit := func(id string) *Job {
		spec := NewJobSpec(id, o)
		spec.Affinity = "images-" + id
		job, err := c.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	complete := func(worker RegisterResponse, l *Lease, errMsg string, spans ...telemetry.Span) {
		req := CompleteRequest{WorkerID: worker.WorkerID, LeaseID: l.ID, JobID: l.Job.ID,
			Error: errMsg, Spans: spans}
		if errMsg == "" {
			req.Report = encodedReport(t, l.Job.Experiment)
		}
		if _, err := c.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	expireLease := func(id string) {
		c.mu.Lock()
		c.leases[id].expires = time.Now().Add(-time.Second)
		c.mu.Unlock()
		c.sweep()
	}

	s.step(func() { alpha = register(t, c, "alpha") })
	s.step(func() { beta = register(t, c, "beta") })
	s.step(func() { jobA = submit("a") })
	s.step(func() {
		if job := submit("h"); job.Result().State != JobSucceeded {
			t.Fatalf("cache hit did not succeed: %+v", job.Result())
		}
	})
	s.step(func() { jobB = submit("b") })
	s.step(func() { l = mustLease(t, c, alpha.WorkerID) }) // A, attempt 1
	s.step(func() { expireLease(l.ID) })                   // A backs off
	s.step(func() { l = mustLease(t, c, alpha.WorkerID) }) // A, attempt 2 (affinity)
	leaseA := l
	s.step(func() { l = mustLease(t, c, beta.WorkerID) }) // B, attempt 1
	s.step(func() { complete(beta, l, "boom") })          // B backs off
	s.step(func() {
		now := time.Now()
		ws := telemetry.SpanBetween(leaseA.Job.TraceID, leaseA.ID+".w", leaseA.SpanID,
			"worker:alpha", "worker.run", now, now)
		complete(alpha, leaseA, "", ws) // A commits
	})
	s.step(func() { complete(alpha, leaseA, "") })         // duplicate, dropped
	s.step(func() { l = mustLease(t, c, alpha.WorkerID) }) // B, attempt 2, stolen
	s.step(func() { complete(alpha, l, "boom again") })    // B fails at MaxAttempts
	s.step(func() { jobC = submit("c") })
	s.step(func() { mustLease(t, c, beta.WorkerID) })
	s.step(func() { c.Cancel(jobC.ID(), "operator cancel") })
	s.step(func() { jobD = submit("d") })
	s.step(func() { mustLease(t, c, beta.WorkerID) })
	s.step(func() { // beta falls silent; D re-queues
		c.mu.Lock()
		c.workers[beta.WorkerID].lastSeen = time.Now().Add(-2 * time.Hour)
		c.mu.Unlock()
		c.sweep()
	})

	for job, want := range map[*Job]JobState{jobA: JobSucceeded, jobB: JobFailed, jobC: JobCancelled} {
		if got := job.Result().State; got != want {
			t.Fatalf("%s: state %s, want %s", job.ID(), got, want)
		}
	}
	if info, _ := c.Job(jobD.ID()); info.State != JobPending {
		t.Fatalf("%s: state %s, want pending after its worker expired", jobD.ID(), info.State)
	}

	var exp TraceExport
	if err := json.Unmarshal(getBody(t, h, "/cluster/v1/trace"), &exp); err != nil {
		t.Fatal(err)
	}
	trace, err := json.MarshalIndent(s.normaliseTrace(exp), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.json", append(trace, '\n'))
	html, err := report.RenderTrace(trace, "lifecycle script")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.html", html)

	var status map[string]any
	if err := json.Unmarshal(getBody(t, h, "/cluster/v1/status"), &status); err != nil {
		t.Fatal(err)
	}
	for _, w := range status["workers"].([]any) {
		delete(w.(map[string]any), "lastSeenMs")
	}
	statusJSON, err := json.MarshalIndent(status, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "status.json", append(statusJSON, '\n'))
	checkGolden(t, "metrics.txt", getBody(t, h, "/cluster/v1/metrics"))
}
