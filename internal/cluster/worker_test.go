package cluster

// Worker-loop tests over the loopback transport, ending in the crash
// acceptance run: a fleet across two workers with one killed mid-run must
// produce reports byte-identical to a serial experiments.RunFleet.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

func TestLoopbackPoolRunsJobs(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	pool, err := StartLoopbackWorkers(c, 2, WorkerConfig{
		Runners:   c.cfg.Runners,
		PollEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()

	results := RunFleet(context.Background(), c, c.cfg.Runners, experiments.QuickOptions())
	if err := pool.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Runner.ID, r.Err)
		}
		if r.Worker != "loopback-0" && r.Worker != "loopback-1" {
			t.Fatalf("%s: committed by %q, want a loopback worker", r.Runner.ID, r.Worker)
		}
		if r.Report.ID != r.Runner.ID {
			t.Fatalf("report ID %q for runner %q", r.Report.ID, r.Runner.ID)
		}
	}
}

// TestLoopbackWorkerWakesOnEnqueue: an idle in-process worker leases a
// job the moment it is queued instead of at its next poll — with an
// hour-long poll interval, only the wake-up can get the job committed.
func TestLoopbackWorkerWakesOnEnqueue(t *testing.T) {
	c := testCoordinator(t, Config{LeaseTTL: time.Hour})
	pool, err := StartLoopbackWorkers(c, 1, WorkerConfig{
		Runners:   c.cfg.Runners,
		PollEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	// Let the worker register and find the queue empty, so it is idle.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Status().Workers) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	job, err := c.Submit(NewJobSpec("a", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle loopback worker never woke for the queued job")
	}
	if res := job.Result(); res.State != JobSucceeded || res.Worker != "loopback-0" {
		t.Fatalf("result = %+v, want success committed by loopback-0", res)
	}
}

// TestLoopbackLeaseDrivesJobBeat: an in-process lease runs the cell on the
// submitter's own heartbeat, so progress is live without waiting for a
// worker heartbeat (an hour apart here).
func TestLoopbackLeaseDrivesJobBeat(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	parked := experiments.Runner{ID: "p", Title: "parks after beating",
		Run: func(o experiments.Options) (experiments.Report, error) {
			o.Beat.Add(4321)
			<-release
			return experiments.Report{ID: "p"}, nil
		}}
	c := testCoordinator(t, Config{
		Runners:        []experiments.Runner{parked},
		LeaseTTL:       time.Hour,
		HeartbeatEvery: time.Hour,
	})
	pool, err := StartLoopbackWorkers(c, 1, WorkerConfig{PollEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pool.Kill(0) // the runner is still parked
		_ = pool.Stop()
	}()
	beat := &telemetry.Beat{}
	if _, err := c.Submit(NewJobSpec("p", experiments.QuickOptions()), beat); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for beat.Cycles() != 4321 {
		if time.Now().After(deadline) {
			t.Fatalf("job beat = %d, want 4321 while the lease runs", beat.Cycles())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopbackHeartbeatKeepsJobBeat: heartbeats from an in-process worker
// must not mirror a stale read back into the job's beat it is driving, or
// cycles added in between are lost.
func TestLoopbackHeartbeatKeepsJobBeat(t *testing.T) {
	const steps = 200
	stepper := experiments.Runner{ID: "s", Title: "beats in steps",
		Run: func(o experiments.Options) (experiments.Report, error) {
			for i := 0; i < steps; i++ {
				o.Beat.Add(1)
				time.Sleep(50 * time.Microsecond)
			}
			return experiments.Report{ID: "s"}, nil
		}}
	c := testCoordinator(t, Config{
		Runners:        []experiments.Runner{stepper},
		LeaseTTL:       time.Hour,
		HeartbeatEvery: time.Millisecond,
		WorkerExpiry:   time.Hour,
	})
	pool, err := StartLoopbackWorkers(c, 1, WorkerConfig{PollEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	beat := &telemetry.Beat{}
	job, err := c.Submit(NewJobSpec("s", experiments.QuickOptions()), beat)
	if err != nil {
		t.Fatal(err)
	}
	if res := job.Result(); res.State != JobSucceeded {
		t.Fatalf("result = %+v", res)
	}
	if got := beat.Cycles(); got != steps {
		t.Fatalf("job beat = %d after the run, want %d", got, steps)
	}
}

// TestLoopbackFleetTelemetry: Options.Tel reaches cells executed by
// in-process loopback workers — a loopback lease hands the submitted
// options over by value, while the JSON wire drops the hub — so a 2-worker
// cluster fleet's hub snapshot sums equal a serial fleet's.
func TestLoopbackFleetTelemetry(t *testing.T) {
	ids := []string{"table1", "fig22", "abl-layout"}
	runners := make([]experiments.Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		runners = append(runners, r)
	}
	o := experiments.QuickOptions()
	o.Shrink = 8
	o.Parallel = 1
	summarize := func(h *telemetry.Hub, reports []experiments.Result) (string, string) {
		var rep, sum strings.Builder
		for _, r := range reports {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Runner.ID, r.Err)
			}
			rep.WriteString(r.Report.String())
		}
		if err := h.Snapshot().WriteSummary(&sum); err != nil {
			t.Fatal(err)
		}
		return rep.String(), sum.String()
	}

	serialOpts := o
	serialOpts.Tel = telemetry.NewHub(256)
	serialRep, serialSum := summarize(serialOpts.Tel, experiments.RunFleet(runners, serialOpts, 1))
	if !strings.Contains(serialSum, "heap.allocations") {
		t.Fatalf("serial summary looks unpopulated:\n%s", serialSum)
	}

	c := NewCoordinator(Config{Runners: runners, LeaseTTL: time.Hour})
	defer c.Close()
	pool, err := StartLoopbackWorkers(c, 2, WorkerConfig{Runners: runners, PollEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clusterOpts := o
	clusterOpts.Tel = telemetry.NewHub(256)
	fleet := RunFleet(context.Background(), c, runners, clusterOpts)
	if err := pool.Stop(); err != nil {
		t.Fatal(err)
	}
	results := make([]experiments.Result, len(fleet))
	for i, r := range fleet {
		results[i] = r.Result
	}
	clusterRep, clusterSum := summarize(clusterOpts.Tel, results)
	if clusterRep != serialRep {
		t.Errorf("cluster reports differ from serial with Options.Tel set")
	}
	if clusterSum != serialSum {
		t.Errorf("cluster telemetry snapshot differs from serial:\n--- serial ---\n%s--- cluster ---\n%s",
			serialSum, clusterSum)
	}
}

// TestGracefulStopCompletesInflight is the worker half of the drain story:
// cancelling the pool context while a lease is executing must let the
// runner finish and the completion commit, not abandon the job.
func TestGracefulStopCompletesInflight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := experiments.Runner{
		ID: "slow", Title: "blocks until released",
		Run: func(o experiments.Options) (experiments.Report, error) {
			started <- struct{}{}
			<-release
			return experiments.Report{ID: "slow", Rows: []string{"done"}}, nil
		},
	}
	c := testCoordinator(t, Config{Runners: []experiments.Runner{slow}, LeaseTTL: time.Hour})
	pool, err := StartLoopbackWorkers(c, 1, WorkerConfig{
		Runners:   []experiments.Runner{slow},
		PollEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(NewJobSpec("slow", experiments.QuickOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("runner never started")
	}
	stopped := make(chan error, 1)
	go func() { stopped <- pool.Stop() }()
	select {
	case err := <-stopped:
		t.Fatalf("pool stopped with the lease still executing: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool never stopped after the runner finished")
	}
	if res := job.Result(); res.State != JobSucceeded {
		t.Fatalf("job state after graceful stop = %s (%s), want succeeded", res.State, res.Err)
	}
}

// TestWorkerLocalCacheHit proves a warm worker answers leases from its own
// result cache: the runner would fail if invoked, yet the job succeeds with
// the CacheHit attribution.
func TestWorkerLocalCacheHit(t *testing.T) {
	never := experiments.Runner{
		ID: "a", Title: "must not run",
		Run: func(o experiments.Options) (experiments.Report, error) {
			return experiments.Report{}, errors.New("runner invoked despite cached result")
		},
	}
	c := testCoordinator(t, Config{Runners: []experiments.Runner{never}, LeaseTTL: time.Hour})
	cache, err := resultcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	spec := NewJobSpec("a", experiments.QuickOptions())
	key, ok := parseCacheKey(spec.CacheKey)
	if !ok {
		t.Fatal("spec cache key does not parse")
	}
	if err := cache.Put(key, encodedReport(t, "a")); err != nil {
		t.Fatal(err)
	}
	pool, err := StartLoopbackWorkers(c, 1, WorkerConfig{
		Runners:   []experiments.Runner{never},
		Cache:     cache,
		PollEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	job, err := c.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := job.Result()
	if res.State != JobSucceeded || !res.CacheHit {
		t.Fatalf("result = %+v, want cache-hit success", res)
	}
}

// TestClusterFleetSurvivesKilledWorker is the acceptance run: real
// experiment cells over two workers, the first killed while executing a
// lease. The coordinator recovers through lease expiry and retry, and the
// final reports are byte-identical to a serial fleet run — the
// distributed plane preserves the simulator's determinism contract.
func TestClusterFleetSurvivesKilledWorker(t *testing.T) {
	ids := []string{"table1", "fig22", "abl-barriers", "abl-layout"}
	runners := make([]experiments.Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		runners = append(runners, r)
	}
	o := experiments.QuickOptions()
	o.Shrink = 8
	o.Parallel = 1

	serial := experiments.RunFleet(runners, o, 1)
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("serial %s: %v", r.Runner.ID, r.Err)
		}
	}

	c := NewCoordinator(Config{
		Runners:      runners,
		LeaseTTL:     100 * time.Millisecond,
		WorkerExpiry: time.Hour, // recovery must come from lease expiry alone
		RetryBase:    time.Millisecond,
	})
	defer c.Close()

	// The victim's runner table blocks forever: whatever it leases can only
	// finish via expiry and retry on the survivor.
	leased := make(chan string, len(runners))
	release := make(chan struct{})
	defer close(release)
	victimRunners := make([]experiments.Runner, len(runners))
	for i, r := range runners {
		id := r.ID
		victimRunners[i] = experiments.Runner{
			ID: id, Title: r.Title,
			Run: func(o experiments.Options) (experiments.Report, error) {
				leased <- id
				<-release
				return experiments.Report{}, errors.New("victim was released")
			},
		}
	}
	victim, err := NewWorker(WorkerConfig{
		Name: "victim", Client: c, Runners: victimRunners, PollEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := NewWorker(WorkerConfig{
		Name: "survivor", Client: c, Runners: runners, PollEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 2)
	go func() { workerDone <- victim.Run(ctx) }()
	go func() { workerDone <- survivor.Run(ctx) }()

	resc := make(chan []FleetResult, 1)
	go func() { resc <- RunFleet(context.Background(), c, runners, o) }()

	select {
	case id := <-leased:
		t.Logf("killing victim while it executes %s", id)
	case <-time.After(60 * time.Second):
		t.Fatal("victim never leased a job")
	}
	victim.Kill()

	var results []FleetResult
	select {
	case results = <-resc:
	case <-time.After(5 * time.Minute):
		t.Fatalf("fleet never finished after the kill: %+v", c.Status())
	}

	retried := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Runner.ID, r.Err)
		}
		if r.Worker != "survivor" {
			t.Errorf("%s: committed by %q, want survivor", r.Runner.ID, r.Worker)
		}
		if r.Retries > 0 {
			retried++
		}
		got, err := experiments.EncodeReport(r.Report)
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiments.EncodeReport(serial[i].Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: cluster report differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s",
				r.Runner.ID, want, got)
		}
	}
	if retried == 0 {
		t.Error("no job was retried — the kill did not interrupt a lease")
	}
	st := c.Status()
	if st.LeasesExpired == 0 {
		t.Errorf("leases expired = 0, want >= 1: %+v", st)
	}

	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerDone:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit")
		}
	}
}
