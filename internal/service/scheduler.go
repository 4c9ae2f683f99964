// Package service turns the deterministic experiment fleet into a
// long-running simulation service: a bounded job queue drained by a worker
// pool, fronted by an HTTP/JSON API (server.go, daemon.go). Every job runs
// through a cluster coordinator, which owns the content-addressed result
// cache, placement on in-process or remote workers, retries, and
// attribution. Because reports are byte-identical at any fleet width, a
// cache hit is provably identical to recomputing the cell.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/ledger"
	"hwgc/internal/telemetry"
)

// Submission errors. The HTTP layer maps these to status codes.
var (
	// ErrDraining is returned by Submit once a drain has begun.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity.
	ErrQueueFull = errors.New("service: job queue full")
)

// UnknownExperimentError reports a submission naming no known runner, and
// carries the valid IDs so clients can self-correct.
type UnknownExperimentError struct {
	Name  string
	Valid []string
}

func (e *UnknownExperimentError) Error() string {
	return fmt.Sprintf("service: unknown experiment %q; valid IDs: %s",
		e.Name, strings.Join(e.Valid, " "))
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Config parameterizes a Scheduler. The zero value is usable: GOMAXPROCS
// pool workers and as many in-process workers, a 64-deep queue, no per-job
// deadline, and a private coordinator serving every experiment uncached.
type Config struct {
	// Workers is the worker-pool size: how many jobs are in flight on the
	// coordinator at once (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-unstarted jobs
	// (<= 0 means 64). Submissions past the bound fail with ErrQueueFull.
	QueueDepth int
	// JobTimeout is the per-job deadline measured from the moment a worker
	// picks the job up (<= 0 means no deadline). A job past its deadline is
	// cancelled on the coordinator; a simulation cannot be interrupted and
	// is left to finish detached, its result dropped.
	JobTimeout time.Duration
	// Coordinator executes every job: it owns the result cache, placement,
	// retries, and attribution, and its hub carries the service metrics
	// too. nil means a private coordinator over experiments.All() with no
	// cache. The scheduler owns it from New on: Drain drains and closes it.
	Coordinator *cluster.Coordinator
	// LocalWorkers is how many in-process loopback workers execute the
	// coordinator's leases (0 means Workers; negative means none, leaving
	// execution to remote hwgc-worker processes).
	LocalWorkers int
	// Ledger, when set, receives one run manifest per finished job, so a
	// served fleet leaves the same durable trail as a hwgc-bench run.
	Ledger *ledger.Store
	// RetainFinished bounds how many finished (succeeded, failed, or
	// cancelled) jobs stay in the job table; the oldest-finished beyond the
	// bound are evicted and their endpoints answer 410 Gone. 0 means the
	// default 4096; negative means unlimited.
	RetainFinished int
}

// DefaultRetainFinished is the finished-job table bound when
// Config.RetainFinished is 0.
const DefaultRetainFinished = 4096

// Job is one submitted simulation cell. Inputs are immutable; progress
// fields are guarded by the owning scheduler's lock — read them through
// View, or wait for Done.
type Job struct {
	id         string
	experiment string
	opts       experiments.Options
	key        string // experiments.CellKey, hex; computed once at Submit

	// beat receives a live cycles-simulated heartbeat from the running
	// simulation (atomic; read it without the scheduler lock).
	beat *telemetry.Beat

	state     State
	cacheHit  bool
	worker    string // worker whose result committed ("" for cache hits)
	report    []byte // encoded report, exactly the cached payload bytes
	errMsg    string
	attempts  int    // lease grants
	retries   int    // re-queues after failed or expired attempts
	traceID   string // distributed trace ("" when tracing is off)
	spans     []telemetry.Span
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// View is the JSON representation of a job. Report holds the cached
// payload verbatim (json.RawMessage), so two views of the same cell carry
// byte-identical report objects — the property the service integration
// test asserts.
type View struct {
	ID         string              `json:"id"`
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
	State      State               `json:"state"`
	CacheKey   string              `json:"cacheKey"`
	CacheHit   bool                `json:"cacheHit"`
	Worker     string              `json:"worker,omitempty"`
	Attempts   int                 `json:"attempts,omitempty"`
	Retries    int                 `json:"retries,omitempty"`
	TraceID    string              `json:"traceId,omitempty"`
	Report     json.RawMessage     `json:"report,omitempty"`
	Error      string              `json:"error,omitempty"`
	Submitted  time.Time           `json:"submittedAt"`
	Started    *time.Time          `json:"startedAt,omitempty"`
	Finished   *time.Time          `json:"finishedAt,omitempty"`
}

// Scheduler owns the job table, the bounded queue, and the worker pool
// that dispatches queued jobs to the coordinator.
type Scheduler struct {
	cfg   Config
	coord *cluster.Coordinator
	pool  *cluster.LoopbackPool // nil when LocalWorkers < 0
	hub   *telemetry.Hub        // the coordinator's
	known map[string]bool       // served experiment IDs
	queue chan *Job

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	running  map[*Job]struct{}
	finished []string            // finished job IDs, oldest first (eviction order)
	evicted  map[string]struct{} // IDs evicted from the table (410 Gone)
	retain   int
	seq      int
	draining bool

	submitted, completed, failed, cancelled, cacheHits uint64
	latency                                            telemetry.Histogram // guarded by mu (registry histograms are not lock-free)
}

// New starts a scheduler: the worker pool and the in-process workers begin
// draining the queue immediately. Stop it with Drain.
func New(cfg Config) *Scheduler {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	coord := cfg.Coordinator
	if coord == nil {
		coord = cluster.NewCoordinator(cluster.Config{})
	}
	retain := cfg.RetainFinished
	if retain == 0 {
		retain = DefaultRetainFinished
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		coord:   coord,
		hub:     coord.Hub(),
		known:   make(map[string]bool),
		queue:   make(chan *Job, depth),
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    make(map[string]*Job),
		running: make(map[*Job]struct{}),
		evicted: make(map[string]struct{}),
		retain:  retain,
	}
	for _, id := range coord.ExperimentIDs() {
		s.known[id] = true
	}
	s.attachTelemetry(s.hub)
	local := cfg.LocalWorkers
	if local == 0 {
		local = workers
	}
	if local > 0 {
		pool, err := cluster.StartLoopbackWorkers(coord, local, cluster.WorkerConfig{Name: "local"})
		if err != nil {
			panic(err) // unreachable: the workers' client is the coordinator itself
		}
		s.pool = pool
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Hub returns the telemetry hub carrying the service, coordinator, and
// cache metrics: the coordinator's. Never nil.
func (s *Scheduler) Hub() *telemetry.Hub { return s.hub }

// ExperimentIDs returns the served runner IDs, sorted.
func (s *Scheduler) ExperimentIDs() []string { return s.coord.ExperimentIDs() }

// Runners returns the served runner table, sorted by ID.
func (s *Scheduler) Runners() []experiments.Runner { return s.coord.Runners() }

// Submit enqueues one cell. It fails fast with UnknownExperimentError,
// ErrDraining, or ErrQueueFull; it never blocks on a full queue.
func (s *Scheduler) Submit(experiment string, o experiments.Options) (*Job, error) {
	if !s.known[experiment] {
		return nil, &UnknownExperimentError{Name: experiment, Valid: s.ExperimentIDs()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.seq++
	job := &Job{
		id:         fmt.Sprintf("job-%06d", s.seq),
		experiment: experiment,
		opts:       o,
		key:        experiments.CellKey(experiment, o).String(),
		beat:       &telemetry.Beat{},
		state:      StateQueued,
		submitted:  time.Now(),
		done:       make(chan struct{}),
	}
	select {
	case s.queue <- job:
	default:
		return nil, ErrQueueFull
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.submitted++
	return job, nil
}

// View returns the job's current state.
func (s *Scheduler) View(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	return s.viewLocked(job), true
}

// Views returns every job in submission order.
func (s *Scheduler) Views() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, id := range s.order {
		if job, ok := s.jobs[id]; ok { // evicted IDs stay in order but have no job
			out = append(out, s.viewLocked(job))
		}
	}
	return out
}

// Evicted reports whether id named a finished job that has since been
// evicted from the table (RetainFinished). The HTTP layer maps this to
// 410 Gone, distinct from 404 for IDs that never existed.
func (s *Scheduler) Evicted(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, gone := s.evicted[id]
	return gone
}

func (s *Scheduler) viewLocked(j *Job) View {
	v := View{
		ID:         j.id,
		Experiment: j.experiment,
		Options:    j.opts,
		State:      j.state,
		CacheKey:   j.key,
		CacheHit:   j.cacheHit,
		Worker:     j.worker,
		Attempts:   j.attempts,
		Retries:    j.retries,
		TraceID:    j.traceID,
		Error:      j.errMsg,
		Submitted:  j.submitted,
	}
	if len(j.report) > 0 {
		v.Report = json.RawMessage(append([]byte(nil), j.report...))
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.run(job)
	}
}

func (s *Scheduler) run(job *Job) {
	s.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	s.running[job] = struct{}{}
	s.mu.Unlock()

	// Drain deadline already passed: don't start work that will be thrown
	// away.
	if err := s.baseCtx.Err(); err != nil {
		s.finish(job, StateCancelled, err.Error(), cluster.JobResult{})
		return
	}

	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
		defer cancel()
	}

	// The coordinator owns cache lookup, placement, and retries; this pool
	// goroutine just waits. The job's heartbeat rides along, so an
	// in-process worker drives the job's live progress. Attribution and
	// trace context are recorded even for failures.
	spec := cluster.JobSpec{ID: job.id, Experiment: job.experiment, Options: job.opts, CacheKey: job.key}
	res, err := s.coord.Dispatch(ctx, spec, job.beat)
	switch {
	case err == nil:
		s.finish(job, StateSucceeded, "", res)
	case res.State == cluster.JobCancelled:
		s.finish(job, StateCancelled, err.Error(), res)
	default:
		s.finish(job, StateFailed, err.Error(), res)
	}
}

func (s *Scheduler) finish(job *Job, st State, errMsg string, res cluster.JobResult) {
	s.mu.Lock()
	job.state = st
	job.report = res.Report
	job.errMsg = errMsg
	job.cacheHit = res.CacheHit
	job.worker = res.Worker
	job.attempts = res.Attempts
	job.retries = res.Retries
	job.traceID = res.TraceID
	job.spans = res.Spans
	job.finished = time.Now()
	delete(s.running, job)
	switch st {
	case StateSucceeded:
		s.completed++
		if res.CacheHit {
			s.cacheHits++
		}
	case StateFailed:
		s.failed++
	case StateCancelled:
		s.cancelled++
	}
	us := job.finished.Sub(job.submitted).Microseconds()
	if us < 0 {
		us = 0
	}
	s.latency.Observe(uint64(us))
	s.finished = append(s.finished, job.id)
	if s.retain > 0 {
		for len(s.finished) > s.retain {
			s.evictOldestLocked()
		}
	}
	s.mu.Unlock()
	if s.cfg.Ledger != nil {
		// Manifest writes happen outside the lock — a slow disk never
		// stalls the job table — but before done closes, so a waiter that
		// sees the job finish also sees its manifest. A failed append only
		// loses the record.
		_, _ = s.cfg.Ledger.Append(jobManifest(job))
	}
	close(job.done)
}

// evictOldestLocked drops the oldest finished job from the table and
// remembers its ID so later lookups answer "gone" rather than "never
// existed". Caller holds s.mu and has checked len(s.finished) > 0.
func (s *Scheduler) evictOldestLocked() {
	id := s.finished[0]
	s.finished = s.finished[1:]
	delete(s.jobs, id)
	s.evicted[id] = struct{}{}
	// Evictions are oldest-first, so the ID sits near the front of the
	// submission order; the scan is short in practice.
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// JobManifest rebuilds a finished job's run manifest — the same document
// the ledger receives — so the HTTP layer can render it (the HTML report
// endpoint). ok reports whether the job exists; a known-but-unfinished job
// returns (nil, true), which the handler maps to 409 Conflict.
func (s *Scheduler) JobManifest(id string) (m *ledger.Manifest, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	switch job.state {
	case StateSucceeded, StateFailed, StateCancelled:
		return jobManifest(job), true
	}
	return nil, true
}

// jobManifest records one finished job as a single-experiment run manifest.
func jobManifest(job *Job) *ledger.Manifest {
	m := ledger.NewManifest("hwgc-serve", ledger.Scale{
		GCs: job.opts.GCs, Seed: job.opts.Seed,
		Quick: job.opts.Quick, Shrink: job.opts.Shrink,
	})
	rec := ledger.Experiment{
		ID:       job.experiment,
		CellKey:  job.key,
		CacheHit: job.cacheHit,
		Worker:   job.worker,
		Attempts: job.attempts,
		Retries:  job.retries,
		TraceID:  job.traceID,
		Spans:    job.spans,
		Error:    job.errMsg,
	}
	if !job.started.IsZero() {
		rec.WallMS = float64(job.finished.Sub(job.started).Microseconds()) / 1e3
		m.Host.WallMS = rec.WallMS
	}
	if len(job.report) > 0 {
		if rep, err := experiments.DecodeReport(job.report); err == nil {
			rec.Title = rep.Title
			rec.Metrics = rep.Metrics
		}
	}
	m.Experiments = []ledger.Experiment{rec}
	return m
}

// Progress is the live view of one job's simulation: CyclesSimulated
// advances while the job runs (it reads the heartbeat the simulation
// updates between engine events), so a client polling
// GET /v1/jobs/{id}/progress can watch a cell make headway long before the
// report exists.
type Progress struct {
	ID              string     `json:"id"`
	Experiment      string     `json:"experiment"`
	State           State      `json:"state"`
	CacheHit        bool       `json:"cacheHit"`
	CyclesSimulated uint64     `json:"cyclesSimulated"`
	Submitted       time.Time  `json:"submittedAt"`
	Started         *time.Time `json:"startedAt,omitempty"`
	RunningMS       float64    `json:"runningMs"`
}

// Progress returns the job's live progress.
func (s *Scheduler) Progress(id string) (Progress, bool) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Progress{}, false
	}
	p := Progress{
		ID:         job.id,
		Experiment: job.experiment,
		State:      job.state,
		CacheHit:   job.cacheHit,
		Submitted:  job.submitted,
	}
	if !job.started.IsZero() {
		t := job.started
		p.Started = &t
		end := job.finished
		if end.IsZero() {
			end = time.Now()
		}
		p.RunningMS = float64(end.Sub(job.started).Microseconds()) / 1e3
	}
	beat := job.beat
	s.mu.Unlock()
	// The beat is atomic: read it after dropping the lock so a hot
	// simulation never contends with the job table.
	p.CyclesSimulated = beat.Cycles()
	return p, true
}

// Draining reports whether a drain has begun — GET /readyz answers 503
// once it has, so load balancers stop routing new submissions here.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops the scheduler gracefully: new submissions fail with
// ErrDraining immediately, queued and in-flight jobs run to completion,
// and once ctx expires any still-running jobs are cancelled. Then the
// coordinator drains and closes, and the in-process workers stop. Drain
// returns by the deadline even while an in-process simulation is still
// running; it is safe to call more than once.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // deadline: cancel in-flight and queued jobs
		<-done
	}
	s.cancel()
	_ = s.coord.Drain(ctx)
	if s.pool != nil {
		// Every job is terminal now, so an in-process runner still going
		// holds a lease whose result would only be dropped: abandon it, as
		// Worker.Kill does, and let the simulation finish detached.
		for i := 0; i < s.pool.Len(); i++ {
			s.pool.Kill(i)
		}
		_ = s.pool.Stop()
	}
	s.coord.Close()
	return nil
}

// attachTelemetry registers the scheduler's metrics on the hub registry.
// The latency histogram is guarded by the scheduler lock (registry
// histograms are not lock-free), so it is published as locked gauges and
// counter funcs rather than as a raw registry histogram — safe to sample
// or snapshot from any goroutine while jobs finish.
func (s *Scheduler) attachTelemetry(h *telemetry.Hub) {
	reg := h.Registry()
	if reg == nil {
		return
	}
	locked := func(f func() uint64) func() uint64 {
		return func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	gauge := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	reg.CounterFunc("service.jobs.submitted", locked(func() uint64 { return s.submitted }))
	reg.CounterFunc("service.jobs.completed", locked(func() uint64 { return s.completed }))
	reg.CounterFunc("service.jobs.failed", locked(func() uint64 { return s.failed }))
	reg.CounterFunc("service.jobs.cancelled", locked(func() uint64 { return s.cancelled }))
	reg.CounterFunc("service.jobs.cachehits", locked(func() uint64 { return s.cacheHits }))
	reg.Gauge("service.queue.depth", func() float64 { return float64(len(s.queue)) })
	reg.Gauge("service.jobs.running", gauge(func() float64 { return float64(len(s.running)) }))
	reg.Gauge("service.inflight.cycles", func() float64 {
		s.mu.Lock()
		beats := make([]*telemetry.Beat, 0, len(s.running))
		//hwgc:allow maporder beats feed an order-insensitive sum, never output bytes
		for job := range s.running {
			beats = append(beats, job.beat)
		}
		s.mu.Unlock()
		var sum uint64
		for _, b := range beats {
			sum += b.Cycles()
		}
		return float64(sum)
	})
	reg.CounterFunc("service.job.latency.count", locked(func() uint64 { return s.latency.Count() }))
	reg.Gauge("service.job.latency.mean_us", gauge(func() float64 { return s.latency.Mean() }))
	reg.Gauge("service.job.latency.max_us", gauge(func() float64 { return float64(s.latency.Max()) }))
	reg.Gauge("service.job.latency.p50_us", gauge(func() float64 { return s.latency.Quantile(0.50) }))
	reg.Gauge("service.job.latency.p99_us", gauge(func() float64 { return s.latency.Quantile(0.99) }))
}
