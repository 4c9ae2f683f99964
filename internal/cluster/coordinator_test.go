package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

// fastRunner returns a synthetic runner with a fixed, instant report.
func fastRunner(id string) experiments.Runner {
	return experiments.Runner{
		ID:    id,
		Title: "test runner " + id,
		Run: func(o experiments.Options) (experiments.Report, error) {
			return experiments.Report{ID: id, Rows: []string{"row " + id}}, nil
		},
	}
}

// testCoordinator builds a coordinator over synthetic runners with fast
// janitor-friendly timings; Close is deferred automatically.
func testCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Runners == nil {
		cfg.Runners = []experiments.Runner{fastRunner("a"), fastRunner("b")}
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	return c
}

// register registers a default-capability worker and returns its response.
func register(t *testing.T, c *Coordinator, name string) RegisterResponse {
	t.Helper()
	resp, err := c.Register(RegisterRequest{
		Name:          name,
		Protocol:      ProtocolVersion,
		ModuleVersion: resultcache.ModuleVersion(),
	})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return resp
}

// mustLease asks for a lease and fails the test when none is granted.
func mustLease(t *testing.T, c *Coordinator, workerID string) *Lease {
	t.Helper()
	resp, err := c.Lease(LeaseRequest{WorkerID: workerID})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if resp.Lease == nil {
		t.Fatalf("worker %s: no lease granted", workerID)
	}
	return resp.Lease
}

// encodedReport returns the canonical payload for a synthetic runner's
// report.
func encodedReport(t *testing.T, id string) []byte {
	t.Helper()
	b, err := experiments.EncodeReport(experiments.Report{ID: id, Rows: []string{"row " + id}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegisterRejectsProtocolMismatch(t *testing.T) {
	c := testCoordinator(t, Config{})
	_, err := c.Register(RegisterRequest{
		Protocol:      "hwgc-cluster-v0",
		ModuleVersion: resultcache.ModuleVersion(),
	})
	if !errors.Is(err, ErrProtocolMismatch) {
		t.Fatalf("err = %v, want ErrProtocolMismatch", err)
	}
}

func TestRegisterRejectsModuleVersionMismatch(t *testing.T) {
	c := testCoordinator(t, Config{})
	_, err := c.Register(RegisterRequest{
		Protocol:      ProtocolVersion,
		ModuleVersion: "some-other-build",
	})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
}

func TestRegisterAdvertisesLeaseAndHeartbeat(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: 7 * time.Second, HeartbeatEvery: 2 * time.Second})
	resp := register(t, c, "w")
	if resp.WorkerID == "" {
		t.Fatal("no worker ID assigned")
	}
	if resp.LeaseTTLMS != 7000 || resp.HeartbeatMS != 2000 {
		t.Fatalf("advertised ttl/heartbeat = %d/%d ms, want 7000/2000", resp.LeaseTTLMS, resp.HeartbeatMS)
	}
}

func TestSubmitUnknownExperiment(t *testing.T) {
	c := testCoordinator(t, Config{})
	_, err := c.Submit(NewJobSpec("nope", experiments.QuickOptions()), nil)
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
	if !strings.Contains(err.Error(), "a") {
		t.Fatalf("error does not list valid IDs: %v", err)
	}
}

func TestCapabilityFilterKeepsJobsFromIncapableWorkers(t *testing.T) {
	c := testCoordinator(t, Config{})
	resp, err := c.Register(RegisterRequest{
		Name:          "only-b",
		Protocol:      ProtocolVersion,
		ModuleVersion: resultcache.ModuleVersion(),
		Experiments:   []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil); err != nil {
		t.Fatal(err)
	}
	lr, err := c.Lease(LeaseRequest{WorkerID: resp.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Lease != nil {
		t.Fatalf("incapable worker granted lease for %q", lr.Lease.Job.Experiment)
	}
}

func TestLeaseUnknownWorker(t *testing.T) {
	c := testCoordinator(t, Config{})
	_, err := c.Lease(LeaseRequest{WorkerID: "w-999999"})
	if !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("err = %v, want ErrUnknownWorker", err)
	}
}

// TestLeaseExpiryRequeuesAndAtMostOnceCommit drives the crash-recovery
// path by hand: worker A takes the lease and goes silent, the janitor
// expires it, worker B re-runs the job — and then BOTH completions arrive.
// Exactly one commits.
func TestLeaseExpiryRequeuesAndAtMostOnceCommit(t *testing.T) {
	c := testCoordinator(t, Config{
		LeaseTTL:     30 * time.Millisecond,
		WorkerExpiry: time.Hour, // only the lease expires, not the workers
		RetryBase:    time.Millisecond,
	})
	a := register(t, c, "a-worker")
	b := register(t, c, "b-worker")
	job, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}

	leaseA := mustLease(t, c, a.WorkerID)
	if leaseA.Attempt != 1 {
		t.Fatalf("first grant attempt = %d, want 1", leaseA.Attempt)
	}

	// Worker A never completes; the job must come back around for B.
	var leaseB *Lease
	deadline := time.Now().Add(5 * time.Second)
	for leaseB == nil && time.Now().Before(deadline) {
		lr, err := c.Lease(LeaseRequest{WorkerID: b.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if lr.Lease != nil {
			leaseB = lr.Lease
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if leaseB == nil {
		t.Fatal("expired lease never re-granted")
	}
	if leaseB.Attempt != 2 {
		t.Fatalf("re-grant attempt = %d, want 2", leaseB.Attempt)
	}

	rep := encodedReport(t, "a")
	respB, err := c.Complete(CompleteRequest{
		WorkerID: b.WorkerID, LeaseID: leaseB.ID, JobID: leaseB.Job.ID, Report: rep,
	})
	if err != nil || !respB.Committed {
		t.Fatalf("B's completion: committed=%v err=%v, want commit", respB.Committed, err)
	}
	// A's zombie completion arrives late: dropped.
	respA, err := c.Complete(CompleteRequest{
		WorkerID: a.WorkerID, LeaseID: leaseA.ID, JobID: leaseA.Job.ID, Report: rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if respA.Committed {
		t.Fatal("duplicate completion was committed")
	}

	res := job.Result()
	if res.State != JobSucceeded || res.Worker != "b-worker" || res.Attempts != 2 || res.Retries != 1 {
		t.Fatalf("result = %+v, want succeeded by b-worker, attempts 2, retries 1", res)
	}
	st := c.Status()
	if st.LeasesExpired == 0 || st.DuplicateDrop != 1 {
		t.Fatalf("status expired=%d dupdrops=%d, want >=1 and 1", st.LeasesExpired, st.DuplicateDrop)
	}
}

// TestEarlyCommitBeatsExpiredLease covers the other interleaving: the
// lease expired and the job re-queued, but the original worker's result
// arrives before anyone re-leases it. The early result commits — it is
// content-addressed, so it is exactly what the retry would have produced.
func TestEarlyCommitBeatsExpiredLease(t *testing.T) {
	c := testCoordinator(t, Config{
		LeaseTTL:     20 * time.Millisecond,
		WorkerExpiry: time.Hour,
		RetryBase:    time.Hour, // the retry never becomes ready
	})
	a := register(t, c, "slow-worker")
	job, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, c, a.WorkerID)

	// Wait until the janitor has expired the lease and re-queued the job.
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().LeasesExpired == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if c.Status().LeasesExpired == 0 {
		t.Fatal("lease never expired")
	}

	resp, err := c.Complete(CompleteRequest{
		WorkerID: a.WorkerID, LeaseID: lease.ID, JobID: lease.Job.ID,
		Report: encodedReport(t, "a"),
	})
	if err != nil || !resp.Committed {
		t.Fatalf("early completion: committed=%v err=%v, want commit", resp.Committed, err)
	}
	res := job.Result()
	if res.State != JobSucceeded || res.Worker != "slow-worker" {
		t.Fatalf("result = %+v, want success by slow-worker", res)
	}
}

func TestFailedAttemptsExhaustMaxAttempts(t *testing.T) {
	c := testCoordinator(t, Config{
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		LeaseTTL:    time.Hour,
	})
	w := register(t, c, "w")
	job, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	granted := 0
	for {
		lr, err := c.Lease(LeaseRequest{WorkerID: w.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if lr.Lease == nil {
			select {
			case <-job.Done():
				res := job.Result()
				if res.State != JobFailed {
					t.Fatalf("state = %s, want failed", res.State)
				}
				if res.Attempts != 2 {
					t.Fatalf("attempts = %d, want 2", res.Attempts)
				}
				if !strings.Contains(res.Err, "giving up") {
					t.Fatalf("error %q does not mention giving up", res.Err)
				}
				return
			default:
				time.Sleep(time.Millisecond) // backoff gate not ready yet
				continue
			}
		}
		granted++
		if lr.Lease.Attempt != granted {
			t.Fatalf("lease attempt = %d, want %d", lr.Lease.Attempt, granted)
		}
		if granted > 2 {
			t.Fatalf("granted %d attempts, max is 2", granted)
		}
		if _, err := c.Complete(CompleteRequest{
			WorkerID: w.WorkerID, LeaseID: lr.Lease.ID, JobID: lr.Lease.Job.ID,
			Error: "simulated failure",
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUndecodableReportRetries(t *testing.T) {
	c := testCoordinator(t, Config{MaxAttempts: 1, LeaseTTL: time.Hour})
	w := register(t, c, "w")
	job, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, c, w.WorkerID)
	resp, err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, LeaseID: lease.ID, JobID: lease.Job.ID,
		Report: []byte("{torn"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Committed {
		t.Fatal("garbage report was committed")
	}
	res := job.Result() // MaxAttempts 1: the failed attempt is terminal
	if res.State != JobFailed || !strings.Contains(res.Err, "undecodable") {
		t.Fatalf("result = %+v, want failure mentioning undecodable", res)
	}
}

func TestSubmitCacheHitSkipsDispatch(t *testing.T) {
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	c := testCoordinator(t, Config{Cache: cache})
	o := experiments.QuickOptions()
	spec := NewJobSpec("a", o)
	key, ok := parseCacheKey(spec.CacheKey)
	if !ok {
		t.Fatal("spec cache key does not parse")
	}
	if err := cache.Put(key, encodedReport(t, "a")); err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := job.Result() // must already be done — no workers exist
	if res.State != JobSucceeded || !res.CacheHit {
		t.Fatalf("result = %+v, want cache-hit success", res)
	}
	if c.Status().Pending != 0 {
		t.Fatal("cache hit still queued for dispatch")
	}
}

func TestCommittedResultLandsInCache(t *testing.T) {
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	c := testCoordinator(t, Config{Cache: cache, LeaseTTL: time.Hour})
	w := register(t, c, "w")
	spec := NewJobSpec("a", experiments.QuickOptions())
	if _, err := c.Submit(spec, nil); err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, c, w.WorkerID)
	if _, err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, LeaseID: lease.ID, JobID: lease.Job.ID,
		Report: encodedReport(t, "a"),
	}); err != nil {
		t.Fatal(err)
	}
	key, _ := parseCacheKey(spec.CacheKey)
	if b, ok := cache.Get(key); !ok || string(b) != string(encodedReport(t, "a")) {
		t.Fatal("committed result not in the cache under the cell key")
	}
}

// TestAffinityRoutingAndStealing pins the three-pass dispatch policy:
// jobs sharing an affinity key prefer the claiming worker, workers with no
// local work take unclaimed jobs first, and an idle worker steals affine
// work rather than letting the queue sit.
func TestAffinityRoutingAndStealing(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	w1 := register(t, c, "w1")
	w2, err := c.Register(RegisterRequest{
		Name: "w2", Protocol: ProtocolVersion, ModuleVersion: resultcache.ModuleVersion(),
		Slots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	o := experiments.QuickOptions()
	submit := func(exp, affinity string) JobSpec {
		t.Helper()
		spec := NewJobSpec(exp, o)
		spec.ID = "" // fresh ID per submission
		spec.Affinity = affinity
		if _, err := c.Submit(spec, nil); err != nil {
			t.Fatal(err)
		}
		return spec
	}
	submit("a", "img-X") // w1 will claim img-X
	submit("a", "img-X")
	submit("b", "") // no affinity

	// w1's first lease claims img-X.
	l1 := mustLease(t, c, w1.WorkerID)
	if l1.Job.Affinity != "img-X" {
		t.Fatalf("w1 first lease affinity = %q, want img-X", l1.Job.Affinity)
	}
	// w2 prefers the unclaimed job over stealing w1's affinity.
	l2 := mustLease(t, c, w2.WorkerID)
	if l2.Job.Affinity != "" {
		t.Fatalf("w2 took affine job %q while unclaimed work was queued", l2.Job.Affinity)
	}
	// Only an img-X job remains: w2 steals it rather than idling.
	l3 := mustLease(t, c, w2.WorkerID)
	if l3.Job.Affinity != "img-X" {
		t.Fatalf("w2 second lease affinity = %q, want stolen img-X", l3.Job.Affinity)
	}
	st := c.Status()
	if st.AffinitySteal != 1 {
		t.Fatalf("affinity steals = %d, want 1", st.AffinitySteal)
	}
	var w2st WorkerStatus
	for _, ws := range st.Workers {
		if ws.Name == "w2" {
			w2st = ws
		}
	}
	if w2st.Stolen != 1 {
		t.Fatalf("w2 stolen = %d, want 1", w2st.Stolen)
	}
}

func TestSlotLimitBoundsLeases(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	resp, err := c.Register(RegisterRequest{
		Name: "w", Protocol: ProtocolVersion, ModuleVersion: resultcache.ModuleVersion(),
		Slots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil); err != nil {
			t.Fatal(err)
		}
	}
	mustLease(t, c, resp.WorkerID)
	lr, err := c.Lease(LeaseRequest{WorkerID: resp.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Lease != nil {
		t.Fatal("second lease granted past the worker's slot limit")
	}
}

func TestWorkerExpiryReleasesLeasesAndAffinity(t *testing.T) {
	c := testCoordinator(t, Config{
		LeaseTTL:       time.Hour, // leases only come back via worker expiry
		HeartbeatEvery: 5 * time.Millisecond,
		WorkerExpiry:   25 * time.Millisecond,
		RetryBase:      time.Millisecond,
	})
	w := register(t, c, "doomed")
	spec := NewJobSpec("a", experiments.QuickOptions())
	spec.Affinity = "img-Y"
	if _, err := c.Submit(spec, nil); err != nil {
		t.Fatal(err)
	}
	mustLease(t, c, w.WorkerID)

	// Silence: the worker never heartbeats again. The janitor must expire
	// it, release the lease, and free the affinity claim.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := c.Status()
		if len(st.Workers) == 0 && st.Pending == 1 {
			// A fresh worker can now claim the affinity and take the job
			// (polling past the retry backoff gate).
			w2 := register(t, c, "successor")
			for time.Now().Before(deadline) {
				lr, err := c.Lease(LeaseRequest{WorkerID: w2.WorkerID})
				if err != nil {
					t.Fatal(err)
				}
				if lr.Lease != nil {
					if lr.Lease.Attempt != 2 {
						t.Fatalf("successor attempt = %d, want 2", lr.Lease.Attempt)
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			t.Fatal("requeued job never re-granted to the successor")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker never expired: %+v", c.Status())
}

func TestHeartbeatMirrorsProgress(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	w := register(t, c, "w")
	beat := &telemetry.Beat{}
	if _, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), beat); err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, c, w.WorkerID)
	resp, err := c.Heartbeat(HeartbeatRequest{
		WorkerID: w.WorkerID,
		Progress: map[string]uint64{lease.ID: 12345},
	})
	if err != nil || !resp.Known {
		t.Fatalf("heartbeat known=%v err=%v", resp.Known, err)
	}
	if got := beat.Cycles(); got != 12345 {
		t.Fatalf("mirrored cycles = %d, want 12345", got)
	}
}

func TestHeartbeatUnknownWorker(t *testing.T) {
	c := testCoordinator(t, Config{})
	resp, err := c.Heartbeat(HeartbeatRequest{WorkerID: "w-000000"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Known {
		t.Fatal("unknown worker reported as known")
	}
}

func TestDrainRejectsSubmissionsAndCancelsAtDeadline(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	job, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain err = %v, want ErrDraining", err)
	}
	res := job.Result()
	if res.State != JobCancelled {
		t.Fatalf("undispatched job state after drain deadline = %s, want cancelled", res.State)
	}
}

// TestDrainLetsLeasedJobsFinish is the graceful half of satellite 3: a
// drain with a leased job in flight waits for the completion instead of
// cancelling it, and registration stays open so the worker can finish.
func TestDrainLetsLeasedJobsFinish(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	w := register(t, c, "w")
	job, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, c, w.WorkerID)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- c.Drain(ctx)
	}()
	time.Sleep(10 * time.Millisecond) // let the drain observe the open job
	if _, err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, LeaseID: lease.ID, JobID: lease.Job.ID,
		Report: encodedReport(t, "a"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return after the leased job completed")
	}
	if res := job.Result(); res.State != JobSucceeded {
		t.Fatalf("leased job state after drain = %s, want succeeded", res.State)
	}
}

func TestDispatchCancelledContext(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Dispatch(ctx, NewJobSpec("a", experiments.QuickOptions()), nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("dispatch err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch did not return after cancellation")
	}
	if st := c.Status(); st.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", st.Cancelled)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	c := testCoordinator(t, Config{RetryBase: 100 * time.Millisecond, RetryMax: time.Second})
	c.mu.Lock()
	defer c.mu.Unlock()
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d := c.backoffLocked(attempt)
		ceil := 100 * time.Millisecond << (attempt - 1)
		if ceil > time.Second {
			ceil = time.Second
		}
		if d > ceil || d < ceil/2 {
			t.Fatalf("attempt %d backoff %s outside [%s, %s]", attempt, d, ceil/2, ceil)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax > time.Second {
		t.Fatalf("backoff exceeded RetryMax: %s", prevMax)
	}
}

// TestJobTableEmptiesAfterTerminalStates: every terminal path — commit,
// cache hit, exhausted attempts, cancellation — drops the job from the
// table, so a long-lived coordinator holds only open work, and a late
// completion for a dropped job still counts as a duplicate.
func TestJobTableEmptiesAfterTerminalStates(t *testing.T) {
	cache, err := resultcache.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	c := testCoordinator(t, Config{LeaseTTL: time.Hour, MaxAttempts: 1, Cache: cache})
	w := register(t, c, "w")
	const n = 5
	var last *Lease
	for i := 0; i < n; i++ {
		o := experiments.Options{Seed: uint64(i + 1)}
		if _, err := c.Submit(NewJobSpec("a", o), nil); err != nil {
			t.Fatal(err)
		}
		last = mustLease(t, c, w.WorkerID)
		if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: last.ID,
			JobID: last.Job.ID, Report: encodedReport(t, "a")}); err != nil {
			t.Fatal(err)
		}
		if hit, err := c.Submit(NewJobSpec("a", o), nil); err != nil || !hit.Result().CacheHit {
			t.Fatalf("resubmission: err %v, want a cache hit", err)
		}
		if _, err := c.Submit(NewJobSpec("b", o), nil); err != nil {
			t.Fatal(err)
		}
		failing := mustLease(t, c, w.WorkerID)
		if _, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: failing.ID,
			JobID: failing.Job.ID, Error: "boom"}); err != nil {
			t.Fatal(err)
		}
		cancelled, err := c.Submit(NewJobSpec("a", experiments.Options{Seed: uint64(100 + i)}), nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Cancel(cancelled.ID(), "test")
	}
	c.mu.Lock()
	open := len(c.jobs)
	c.mu.Unlock()
	if open != 0 {
		t.Fatalf("job table holds %d entries after %d terminal jobs, want 0", open, 4*n)
	}
	st := c.Status()
	if st.Completed != 2*n || st.Failed != n || st.Cancelled != n {
		t.Fatalf("status = %+v, want %d completed, %d failed, %d cancelled", st, 2*n, n, n)
	}

	resp, err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, LeaseID: last.ID,
		JobID: last.Job.ID, Report: encodedReport(t, "a")})
	if err != nil || resp.Committed {
		t.Fatalf("late completion: committed=%v err=%v, want dropped", resp.Committed, err)
	}
	if st := c.Status(); st.DuplicateDrop != 1 {
		t.Fatalf("duplicate drops = %d, want 1", st.DuplicateDrop)
	}
}
