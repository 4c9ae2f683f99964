// Package service turns the deterministic experiment fleet into a
// long-running simulation service: a bounded job queue drained by a worker
// pool, fronted by an HTTP/JSON API (server.go, daemon.go) and backed by
// the content-addressed result cache. Because reports are byte-identical
// at any fleet width (the PR 2 determinism contract), a cache hit served
// by the scheduler is provably identical to recomputing the cell.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/ledger"
	"hwgc/internal/resultcache"
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
// workers, a 64-deep queue, no per-job deadline, no cache, no telemetry.
type Config struct {
	// Workers is the worker-pool size (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-unstarted jobs
	// (<= 0 means 64). Submissions past the bound fail with ErrQueueFull.
	QueueDepth int
	// JobTimeout is the per-job deadline measured from the moment a worker
	// picks the job up (<= 0 means no deadline). A job past its deadline is
	// marked cancelled; the simulation goroutine cannot be interrupted and
	// is left to finish detached, its result discarded.
	JobTimeout time.Duration
	// Cache, when set, is consulted before running and updated after every
	// successful run. Keys come from experiments.CellKey.
	Cache *resultcache.Cache
	// Hub, when set, receives service metrics (queue depth, job counters,
	// latency) and the cache's counters on its registry. When nil the
	// scheduler creates a private hub, so service metrics — and the
	// introspection endpoints built on them — are always on. Jobs' own
	// simulations are never instrumented.
	Hub *telemetry.Hub
	// Ledger, when set, receives one run manifest per finished job, so a
	// served fleet leaves the same durable trail as a hwgc-bench run.
	Ledger *ledger.Store
	// Runners is the experiment table served (nil means experiments.All()).
	// Tests inject synthetic runners here.
	Runners []experiments.Runner
	// Dispatch, when set, routes job execution to a cluster coordinator
	// instead of running cells in-process (hwgc-serve -cluster). The
	// worker pool still drains the queue — it just blocks on remote
	// completion instead of a local simulation. The scheduler's own cache
	// check is skipped in this mode: the dispatcher owns cache policy, so
	// one lookup happens, in one place.
	Dispatch DispatchFunc
	// RetainFinished bounds how many finished (succeeded, failed, or
	// cancelled) jobs stay in the job table; the oldest-finished beyond the
	// bound are evicted and their endpoints answer 410 Gone. 0 means the
	// default 4096; negative means unlimited.
	RetainFinished int
	// PromAppend, when set, is invoked after the registry dump on
	// GET /metrics — the hook cluster coordinators use to append
	// per-worker labeled series that cannot live in the (fixed-name)
	// registry.
	PromAppend func(w io.Writer) error
}

// DispatchFunc executes one cell somewhere else — cmd/hwgc-serve adapts a
// cluster coordinator's Dispatch method onto it. On error the result's
// attribution fields (Worker, Attempts, TraceID, ...) may still be
// populated and are recorded.
type DispatchFunc func(ctx context.Context, experiment string, o experiments.Options) (DispatchResult, error)

// DispatchResult is a dispatched cell's outcome: the encoded report plus
// the attribution and trace context the dispatcher collected. The service
// deliberately mirrors (rather than imports) the cluster package's
// outcome type so the dependency keeps pointing one way.
type DispatchResult struct {
	// Report is the JSON-encoded experiments.Report.
	Report []byte
	// Worker names the worker that produced the result ("" for cache
	// hits); CacheHit marks a result served from a cache.
	Worker   string
	CacheHit bool
	// Attempts and Retries attribute how hard the dispatcher worked.
	Attempts int
	Retries  int
	// TraceID and Spans carry the job's distributed trace when the
	// dispatcher records one ("" / nil otherwise); they flow into job
	// manifests.
	TraceID string
	Spans   []telemetry.Span
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
	key        resultcache.Key

	// beat receives a live cycles-simulated heartbeat from the running
	// simulation (atomic; read it without the scheduler lock).
	beat *telemetry.Beat

	state     State
	cacheHit  bool
	worker    string // cluster worker attribution ("" for local runs)
	report    []byte // encoded report, exactly the cached payload bytes
	errMsg    string
	attempts  int    // dispatcher lease grants (0 for local runs)
	retries   int    // dispatcher re-queues
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

// Scheduler owns the job table, the bounded queue, and the worker pool.
type Scheduler struct {
	cfg   Config
	hub   *telemetry.Hub // cfg.Hub, or the scheduler's own always-on hub
	byID  map[string]experiments.Runner
	ids   []string
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

// New starts a scheduler: the worker pool begins draining the queue
// immediately. Stop it with Drain.
func New(cfg Config) *Scheduler {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	runners := cfg.Runners
	if runners == nil {
		runners = experiments.All()
	}
	retain := cfg.RetainFinished
	if retain == 0 {
		retain = DefaultRetainFinished
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		byID:    make(map[string]experiments.Runner, len(runners)),
		queue:   make(chan *Job, depth),
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    make(map[string]*Job),
		running: make(map[*Job]struct{}),
		evicted: make(map[string]struct{}),
		retain:  retain,
	}
	for _, r := range runners {
		s.byID[r.ID] = r
		s.ids = append(s.ids, r.ID)
	}
	sort.Strings(s.ids)
	// Service metrics are always on: without a caller-supplied hub the
	// scheduler owns one, so the metrics endpoints never have nothing to
	// say.
	s.hub = cfg.Hub
	if s.hub == nil {
		s.hub = telemetry.NewHub(0)
	}
	s.attachTelemetry(s.hub)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Hub returns the scheduler's telemetry hub: cfg.Hub when one was supplied,
// otherwise the scheduler's own always-on hub. Never nil.
func (s *Scheduler) Hub() *telemetry.Hub { return s.hub }

// ExperimentIDs returns the served runner IDs, sorted.
func (s *Scheduler) ExperimentIDs() []string { return append([]string(nil), s.ids...) }

// Runners returns the served runner table in scheduler order.
func (s *Scheduler) Runners() []experiments.Runner {
	out := make([]experiments.Runner, 0, len(s.ids))
	for _, id := range s.ids {
		out = append(out, s.byID[id])
	}
	return out
}

// Submit enqueues one cell. It fails fast with UnknownExperimentError,
// ErrDraining, or ErrQueueFull; it never blocks on a full queue.
func (s *Scheduler) Submit(experiment string, o experiments.Options) (*Job, error) {
	r, ok := s.byID[experiment]
	if !ok {
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
		experiment: r.ID,
		opts:       o,
		key:        experiments.CellKey(r.ID, o),
		beat:       &telemetry.Beat{},
		state:      StateQueued,
		submitted:  time.Now(),
		done:       make(chan struct{}),
	}
	// The heartbeat rides the job's options into every system the runner
	// builds; it never affects results or the cache key (cachekey:"-").
	job.opts.Beat = job.beat
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
		CacheKey:   j.key.String(),
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
	runner := s.byID[job.experiment]
	s.mu.Unlock()

	// Drain deadline already passed: don't start work that will be thrown
	// away.
	if err := s.baseCtx.Err(); err != nil {
		s.finish(job, StateCancelled, err.Error(), DispatchResult{})
		return
	}

	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
		defer cancel()
	}

	if s.cfg.Dispatch != nil {
		// Cluster mode: the coordinator owns cache lookup, execution
		// placement, and retries; the worker-pool goroutine just waits.
		// Attribution and trace context are recorded even for failures.
		res, err := s.cfg.Dispatch(ctx, job.experiment, job.opts)
		switch {
		case err == nil:
			s.finish(job, StateSucceeded, "", res)
		case ctx.Err() != nil:
			res.Report = nil
			s.finish(job, StateCancelled, ctx.Err().Error(), res)
		default:
			res.Report = nil
			s.finish(job, StateFailed, err.Error(), res)
		}
		return
	}

	if s.cfg.Cache != nil {
		if b, ok := s.cfg.Cache.Get(job.key); ok {
			if _, err := experiments.DecodeReport(b); err == nil {
				s.finish(job, StateSucceeded, "", DispatchResult{Report: b, CacheHit: true})
				return
			}
			// Corrupt entry: fall through and recompute.
		}
	}

	type result struct {
		rep experiments.Report
		err error
	}
	ch := make(chan result, 1)
	go func() {
		rep, err := runner.Run(job.opts)
		ch <- result{rep, err}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			s.finish(job, StateFailed, res.err.Error(), DispatchResult{})
			return
		}
		b, err := experiments.EncodeReport(res.rep)
		if err != nil {
			s.finish(job, StateFailed, err.Error(), DispatchResult{})
			return
		}
		if s.cfg.Cache != nil {
			// A failed disk write only loses reuse, never the result.
			_ = s.cfg.Cache.Put(job.key, b)
		}
		s.finish(job, StateSucceeded, "", DispatchResult{Report: b})
	case <-ctx.Done():
		// Runner.Run takes no context; the simulation goroutine finishes
		// detached and its result is discarded.
		s.finish(job, StateCancelled, ctx.Err().Error(), DispatchResult{})
	}
}

func (s *Scheduler) finish(job *Job, st State, errMsg string, res DispatchResult) {
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
		CellKey:  job.key.String(),
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
// and once ctx expires any still-running jobs are cancelled at their next
// checkpoint. Drain returns when every worker has exited; it is safe to
// call more than once.
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
	if s.cfg.Cache != nil {
		s.cfg.Cache.AttachTelemetry(h)
	}
}
