package cluster

// The coordinator: job queue, worker table, lease table, retained job
// history, and the dispatch policy. Everything lives behind one mutex; the
// only background goroutine is the janitor, which expires stale leases,
// silent workers, and jobs past their deadline on a fixed tick.
//
// Invariants:
//
//   - A job is in exactly one of: the pending queue, the lease table (via
//     one active lease), or a terminal state. Terminal jobs leave the job
//     table for the bounded retained history (RetainFinished), so the
//     table holds only open work however long the coordinator runs.
//   - A job's result commits at most once. The first valid Complete wins;
//     every later completion for the same job is dropped with
//     Committed=false. Because attempts share the job's content-addressed
//     cache key, a dropped duplicate is guaranteed byte-identical to the
//     committed result — dropping it loses nothing.
//   - Expired leases re-queue the job with exponential backoff + jitter
//     until MaxAttempts grants have been consumed; then the job fails.

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

// Config parameterizes a Coordinator. The zero value is usable: every
// runner served, 30s leases, 3s heartbeats, 4 attempts per job.
type Config struct {
	// Runners is the experiment table served (nil means experiments.All()).
	Runners []experiments.Runner
	// LeaseTTL is how long a lease stays valid without completion
	// (<= 0 means 30s). Expired leases re-queue their job.
	LeaseTTL time.Duration
	// HeartbeatEvery is the heartbeat interval advertised to workers
	// (<= 0 means 3s).
	HeartbeatEvery time.Duration
	// WorkerExpiry is how long a silent worker stays registered
	// (<= 0 means 3x HeartbeatEvery). An expired worker's leases re-queue
	// immediately and its affinity claims are released.
	WorkerExpiry time.Duration
	// MaxAttempts bounds lease grants per job (<= 0 means 4); past it the
	// job fails with the last attempt's error.
	MaxAttempts int
	// RetryBase is the backoff unit for re-queued jobs (<= 0 means 100ms):
	// attempt n waits in [base*2^(n-1)/2, base*2^(n-1)], capped at RetryMax.
	RetryBase time.Duration
	// RetryMax caps the backoff (<= 0 means 10s).
	RetryMax time.Duration
	// Jitter seeds the backoff jitter (0 means 1). It only spreads retry
	// timing — never results.
	Jitter uint64
	// Cache, when set, is consulted at submission (a hit completes the job
	// without dispatching) and receives every committed result, keyed by
	// the job's content address.
	Cache *resultcache.Cache
	// Hub receives the coordinator's aggregate metrics and the cache's
	// counters on its registry at construction (nil means a private hub;
	// see Coordinator.Hub). Per-worker series are exposed through
	// WritePrometheus (worker names arrive too late to register safely).
	Hub *telemetry.Hub
	// Spans, when set, turns on distributed tracing: every submitted job is
	// assigned a trace ID, its lifecycle phases (queue wait, attempts,
	// backoff) are recorded as wall-clock spans, and the trace context rides
	// the wire so worker-side spans join the same tree. Nil disables tracing
	// entirely — no IDs are minted, nothing extra travels on the wire.
	Spans *telemetry.WallSpans
	// FlightEvents sizes the control-plane flight-recorder ring (<= 0 means
	// DefaultFlightEvents). The recorder is always on: it is bounded,
	// wall-clock only, and never influences dispatch or results.
	FlightEvents int
	// Log, when set, receives structured coordinator events (registrations,
	// expiries, retries) with job/worker/attempt fields.
	Log *slog.Logger
	// MaxPending bounds the jobs waiting for their first lease (<= 0 means
	// unbounded). A submission that misses the cache while that many wait
	// fails with ErrQueueFull; cache hits and re-queued retries are never
	// refused.
	MaxPending int
	// RetainFinished bounds how many terminal jobs stay readable through
	// Job and Jobs (0 means DefaultRetainFinished; negative means
	// unlimited). The oldest-finished beyond the bound are evicted, which
	// Evicted reports.
	RetainFinished int
	// JobTimeout cancels a job still open this long after its first lease
	// grant (<= 0 means no deadline). A simulation cannot be interrupted:
	// it finishes detached and its completion is dropped.
	JobTimeout time.Duration
}

// DefaultRetainFinished is the retained-history bound when
// Config.RetainFinished is 0.
const DefaultRetainFinished = 4096

// JobState is a cluster job's lifecycle position.
type JobState string

const (
	JobPending   JobState = "pending"
	JobLeased    JobState = "leased"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobResult is a terminal job's immutable outcome, safe to read once Done
// is closed.
type JobResult struct {
	State JobState
	// Report is the JSON-encoded experiments.Report (succeeded only).
	Report []byte
	// Err is the failure or cancellation reason.
	Err string
	// Worker names the worker whose result committed ("" for cache hits and
	// cancellations).
	Worker string
	// CacheHit marks a result served without dispatching (coordinator
	// cache) or from the committing worker's local cache.
	CacheHit bool
	// Attempts is the number of lease grants consumed; Retries is how many
	// times the job was re-queued.
	Attempts int
	Retries  int
	// TraceID is the job's distributed trace ("" when tracing is off) and
	// Spans its completed span tree: coordinator lifecycle spans plus any
	// worker-side spans shipped back with completions.
	TraceID string
	Spans   []telemetry.Span
}

// JobInfo is a point-in-time copy of one job's record: its spec, its
// state and attribution so far, and its lifecycle stamps. Started is the
// first lease grant (the submit time for a cache hit, the finish time for
// a job cancelled before any grant); zero stamps have not happened yet.
// Report and Spans share the job's immutable slices.
type JobInfo struct {
	Spec JobSpec
	JobResult
	Submitted, Started, Finished time.Time
	// Beat is the job's progress heartbeat as passed to Submit (may be nil).
	Beat *telemetry.Beat
}

// Job is one submitted cell. Mutable fields are guarded by the owning
// coordinator's lock and frozen once Done closes; wait on Done, then read
// Result or Info.
type Job struct {
	spec JobSpec
	seq  int             // submission order
	beat *telemetry.Beat // in-process progress mirror; nil when unused

	state     JobState
	attempt   int
	retries   int
	notBefore time.Time
	worker    string
	lease     *lease // the active grant; nil while queued or terminal
	cacheHit  bool
	report    []byte
	errMsg    string

	submitted, started, finished time.Time

	// last is the job's latest transition record: the one the next
	// transition's spans derive from. traceID is its distributed trace (""
	// when tracing is off) and spans its tree: the derived coordinator
	// spans plus the worker spans shipped back with completions.
	last    FlightEvent
	traceID string
	spans   []telemetry.Span

	done chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.spec.ID }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the terminal outcome; it blocks until the job finishes.
func (j *Job) Result() JobResult { return j.Info().JobResult }

// Info returns the terminal record; it blocks until the job finishes.
func (j *Job) Info() JobInfo {
	<-j.done
	return j.infoLocked()
}

// infoLocked copies the job's record. Caller holds the coordinator lock,
// or the job is terminal (its fields no longer change).
func (j *Job) infoLocked() JobInfo {
	return JobInfo{
		Spec: j.spec,
		JobResult: JobResult{
			State:    j.state,
			Report:   j.report,
			Err:      j.errMsg,
			Worker:   j.worker,
			CacheHit: j.cacheHit,
			Attempts: j.attempt,
			Retries:  j.retries,
			TraceID:  j.traceID,
			Spans:    j.spans,
		},
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Beat:      j.beat,
	}
}

// lease is one active grant.
type lease struct {
	id       string
	job      *Job
	workerID string
	expires  time.Time
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id       string
	name     string
	slots    int
	caps     map[string]bool
	lastSeen time.Time
	leases   map[string]*lease

	completed, failed, expired, stolen uint64 // per-worker attribution
}

// Coordinator owns the cluster control plane.
type Coordinator struct {
	cfg    Config
	hub    *telemetry.Hub
	byID   map[string]experiments.Runner
	ids    []string
	flight *FlightRecorder

	mu       sync.Mutex
	rng      *rand.Rand
	jobs     map[string]*Job // open (pending or leased) jobs only
	pending  []*Job          // FIFO by submission; notBefore gates readiness
	retained map[string]*Job // terminal jobs still readable, by ID
	history  []*Job          // the retained jobs, oldest-finished first
	retain   int             // history bound (<= 0: unlimited)
	wake     chan struct{}   // closed and replaced whenever a job is queued
	leases   map[string]*lease
	workers  map[string]*workerState
	affinity map[string]string // affinity key -> worker ID owning its images
	draining bool

	seqJob, seqLease, seqWorker int

	counts  map[string]uint64   // transitions by kind (see counterCatalogue)
	latency telemetry.Histogram // submit to terminal, µs

	closeOnce sync.Once
	stop      chan struct{}
	stopped   chan struct{}
}

// NewCoordinator starts a coordinator (and its janitor goroutine). Stop it
// with Close; stop accepting work first with Drain.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 3 * time.Second
	}
	if cfg.WorkerExpiry <= 0 {
		cfg.WorkerExpiry = 3 * cfg.HeartbeatEvery
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 10 * time.Second
	}
	runners := cfg.Runners
	if runners == nil {
		runners = experiments.All()
	}
	seed := cfg.Jitter
	if seed == 0 {
		seed = 1
	}
	retain := cfg.RetainFinished
	if retain == 0 {
		retain = DefaultRetainFinished
	}
	c := &Coordinator{
		cfg:      cfg,
		byID:     make(map[string]experiments.Runner, len(runners)),
		flight:   NewFlightRecorder(cfg.FlightEvents),
		rng:      rand.New(rand.NewSource(int64(seed))),
		jobs:     make(map[string]*Job),
		retained: make(map[string]*Job),
		retain:   retain,
		leases:   make(map[string]*lease),
		workers:  make(map[string]*workerState),
		affinity: make(map[string]string),
		counts:   make(map[string]uint64, 16), // every kind, sized up front
		wake:     make(chan struct{}),
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	for _, r := range runners {
		c.byID[r.ID] = r
		c.ids = append(c.ids, r.ID)
	}
	sort.Strings(c.ids)
	c.hub = cfg.Hub
	if c.hub == nil {
		c.hub = telemetry.NewHub(0)
	}
	c.attachTelemetry(c.hub)
	go c.janitor()
	return c
}

// Hub returns the hub carrying the coordinator's metrics: Config.Hub, or
// the coordinator's own when none was supplied. Never nil.
func (c *Coordinator) Hub() *telemetry.Hub { return c.hub }

// ExperimentIDs returns the served runner IDs, sorted.
func (c *Coordinator) ExperimentIDs() []string { return append([]string(nil), c.ids...) }

// Runners returns the served runner table, sorted by ID.
func (c *Coordinator) Runners() []experiments.Runner {
	out := make([]experiments.Runner, 0, len(c.ids))
	for _, id := range c.ids {
		out = append(out, c.byID[id])
	}
	return out
}

// Close stops the janitor. Idempotent; call after Drain.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.stopped
}

// Submit enqueues one job under a fresh "job-%06d" ID (spec.ID is
// overwritten). A configured cache is consulted first: a hit completes the
// job immediately without dispatching. A miss fails with ErrQueueFull when
// MaxPending jobs already wait. beat, when non-nil, receives the job's
// simulated cycles: an in-process worker drives it directly, a remote one
// through its heartbeats.
func (c *Coordinator) Submit(spec JobSpec, beat *telemetry.Beat) (*Job, error) {
	if _, ok := c.byID[spec.Experiment]; !ok {
		return nil, fmt.Errorf("%w: %q (valid: %v)", ErrUnknownExperiment, spec.Experiment, c.ids)
	}
	// The cache lookup happens outside the coordinator lock (the cache has
	// its own); a hit never touches the dispatch plane at all.
	var hit []byte
	if c.cfg.Cache != nil {
		if key, ok := parseCacheKey(spec.CacheKey); ok {
			if b, ok := c.cfg.Cache.Get(key); ok {
				if _, err := experiments.DecodeReport(b); err == nil {
					hit = b
				}
			}
		}
	}
	if hit == nil && spec.Affinity == "" {
		// Only a job that will be leased needs its affinity key.
		spec.Affinity = experiments.AffinityKey(spec.Experiment, spec.Options)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, ErrDraining
	}
	if hit == nil && c.cfg.MaxPending > 0 && c.waitingLocked() >= c.cfg.MaxPending {
		return nil, ErrQueueFull
	}
	c.seqJob++
	spec.ID = jobID(c.seqJob)
	now := time.Now()
	job := &Job{spec: spec, seq: c.seqJob, beat: beat, state: JobPending,
		submitted: now, done: make(chan struct{})}
	if c.cfg.Spans != nil {
		// The context rides the wire inside the spec so worker-side spans
		// join the same trace.
		job.traceID = c.cfg.Spans.NewTraceID()
		job.spec.TraceID = job.traceID
		job.spec.SpanID = job.traceID + ".job"
	}
	c.jobs[spec.ID] = job
	c.transition(job, "submit", nil, "", spec.Experiment)
	if hit != nil {
		job.cacheHit = true
		job.report = hit
		job.started = now
		c.transition(job, "cache.hit", nil, "", "")
		return job, nil
	}
	c.pending = append(c.pending, job)
	c.wakeLocked()
	return job, nil
}

// jobID formats the n-th minted job ID.
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// waitingLocked counts pending jobs that were never leased: re-queued
// retries do not count against MaxPending. Caller holds c.mu.
func (c *Coordinator) waitingLocked() int {
	n := 0
	for _, job := range c.pending {
		if job.attempt == 0 {
			n++
		}
	}
	return n
}

// wakeLocked tells idle in-process workers that a job was queued, so they
// lease it at once instead of at their next poll. Caller holds c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// wakeup returns a channel that is closed the next time a job is queued.
// Take it before polling Lease, so a job queued in between is not missed.
func (c *Coordinator) wakeup() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wake
}

// Register adds a worker after protocol, build, and capability validation.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Protocol != ProtocolVersion {
		return RegisterResponse{}, fmt.Errorf("%w: coordinator %q, worker %q",
			ErrProtocolMismatch, ProtocolVersion, req.Protocol)
	}
	if req.ModuleVersion != resultcache.ModuleVersion() {
		return RegisterResponse{}, fmt.Errorf("%w: coordinator %q, worker %q",
			ErrVersionMismatch, resultcache.ModuleVersion(), req.ModuleVersion)
	}
	caps := make(map[string]bool)
	if len(req.Experiments) == 0 {
		for _, id := range c.ids {
			caps[id] = true
		}
	} else {
		for _, id := range req.Experiments {
			if _, ok := c.byID[id]; ok {
				caps[id] = true
			}
		}
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Registration is allowed while draining: workers must be able to come
	// back (e.g. after a network blip) to finish leased work.
	c.seqWorker++
	w := &workerState{
		id:       fmt.Sprintf("w-%06d", c.seqWorker),
		name:     req.Name,
		slots:    slots,
		caps:     caps,
		lastSeen: time.Now(),
		leases:   make(map[string]*lease),
	}
	if w.name == "" {
		w.name = w.id
	}
	c.workers[w.id] = w
	c.transition(nil, "worker.register", w, "", w.name)
	return RegisterResponse{
		WorkerID:    w.id,
		LeaseTTLMS:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
	}, nil
}

// Heartbeat stamps the worker alive and mirrors in-flight progress into
// the jobs' beats.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return HeartbeatResponse{Known: false}, nil
	}
	w.lastSeen = time.Now()
	for leaseID, cycles := range req.Progress {
		if l, ok := c.leases[leaseID]; ok && l.workerID == w.id {
			l.job.beat.Set(cycles)
		}
	}
	return HeartbeatResponse{Known: true}, nil
}

// Lease grants the requesting worker one job, preferring cache affinity:
//
//  1. a ready job whose affinity images this worker already owns,
//  2. a ready job with unclaimed (or no) affinity — the worker claims it,
//  3. any ready job (work conservation beats affinity: an idle worker
//     steals rather than letting the queue sit).
//
// Within each pass the oldest submission wins. Only jobs the worker is
// capable of (Register.Experiments) are considered.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return LeaseResponse{}, fmt.Errorf("%w: %q", ErrUnknownWorker, req.WorkerID)
	}
	w.lastSeen = time.Now() // polling for work is proof of life
	if len(w.leases) >= w.slots {
		return LeaseResponse{}, nil
	}
	now := time.Now()
	local, unowned, any := -1, -1, -1
	for i, job := range c.pending {
		if job.notBefore.After(now) || !w.caps[job.spec.Experiment] {
			continue
		}
		if any < 0 {
			any = i
		}
		owner, claimed := c.affinity[job.spec.Affinity]
		switch {
		case job.spec.Affinity != "" && claimed && owner == w.id:
			if local < 0 {
				local = i
			}
		case job.spec.Affinity == "" || !claimed:
			if unowned < 0 {
				unowned = i
			}
		}
		if local >= 0 {
			break // best class found; older entries were already scanned
		}
	}
	idx := local
	steal := false
	if idx < 0 {
		idx = unowned
	}
	if idx < 0 {
		idx, steal = any, any >= 0
	}
	if idx < 0 {
		return LeaseResponse{}, nil
	}
	job := c.pending[idx]
	c.pending = append(c.pending[:idx], c.pending[idx+1:]...)
	if job.spec.Affinity != "" {
		if _, claimed := c.affinity[job.spec.Affinity]; !claimed {
			c.affinity[job.spec.Affinity] = w.id
		}
	}
	if local >= 0 {
		c.counts["affinity.local"]++ // a refinement of lease.grant; no record
	}
	c.seqLease++
	l := &lease{
		id:       fmt.Sprintf("lease-%06d", c.seqLease),
		job:      job,
		workerID: w.id,
		expires:  now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	w.leases[l.id] = l
	job.lease = l
	job.state = JobLeased
	job.attempt++
	job.worker = w.name
	if job.started.IsZero() {
		job.started = now
	}
	if steal {
		w.stolen++
		c.transition(job, "steal", w, l.id, job.spec.Affinity)
	}
	c.transition(job, "lease.grant", w, l.id, "")
	// The attempt span's ID is derived, so the lease names it before the
	// span closes and worker spans parent under it.
	return LeaseResponse{Lease: &Lease{
		ID:      l.id,
		Job:     job.spec,
		TTLMS:   c.cfg.LeaseTTL.Milliseconds(),
		Attempt: job.attempt,
		SpanID:  job.spanID("a"),
		beat:    job.beat,
	}}, nil
}

// Complete commits a finished lease's result — at most once per job. The
// first valid completion wins even if its lease already expired (the
// result is content-addressed, so it is exactly what a retry would have
// produced); anything arriving after a commit or a cancellation — when
// the job has left the table — is dropped with Committed=false.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	w := c.workerOf(req.WorkerID)
	job, ok := c.jobs[req.JobID]
	if !ok {
		// The job left the table: a stand-in carries its ID into the record.
		c.transition(&Job{spec: JobSpec{ID: req.JobID}}, "duplicate.drop", w, req.LeaseID, "")
		c.mu.Unlock()
		return CompleteResponse{Committed: false}, nil
	}
	// Fold worker-side spans into the job's tree before deciding the
	// outcome: failed attempts carry spans worth keeping too.
	if job.traceID != "" {
		for _, s := range req.Spans {
			if s.TraceID != job.traceID {
				continue // defensive: never mix traces
			}
			c.cfg.Spans.Add(s)
			job.spans = append(job.spans, s)
		}
	}
	// Detach whichever lease currently covers the job: the completing
	// worker's own, or — when that one already expired and the job was
	// re-leased — the successor's (its worker's later completion becomes a
	// duplicate and is dropped above). A job re-queued after its lease
	// expired leaves the queue instead: the early result still counts.
	c.detachLocked(job)
	// The attempt span closes under the worker that answered.
	job.worker = w.name
	if req.Error != "" {
		w.failed++
		c.retryLocked(job, fmt.Sprintf("worker %s: %s", w.name, req.Error))
		c.mu.Unlock()
		return CompleteResponse{Committed: true}, nil
	}
	if _, err := experiments.DecodeReport(req.Report); err != nil {
		// A payload torn in transit is an attempt failure, not a terminal
		// one: re-run rather than committing garbage.
		c.retryLocked(job, fmt.Sprintf("worker %s: undecodable report: %v", w.name, err))
		c.mu.Unlock()
		return CompleteResponse{Committed: false}, nil
	}
	job.cacheHit = req.CacheHit
	job.report = append([]byte(nil), req.Report...)
	w.completed++
	if req.CacheHit {
		c.counts["commit.cachehit"]++ // a refinement of commit; no record
	}
	if c.cfg.Cache != nil {
		if key, ok := parseCacheKey(job.spec.CacheKey); ok {
			// Stored before the job's waiters wake, so the same cell
			// submitted right after Done is a hit. Best-effort: a failed
			// cache write only loses reuse.
			_ = c.cfg.Cache.Put(key, job.report)
		}
	}
	c.transition(job, "commit", w, req.LeaseID, w.name)
	c.mu.Unlock()
	return CompleteResponse{Committed: true}, nil
}

// retryLocked re-queues a failed or expired attempt with exponential
// backoff + jitter, or fails the job once MaxAttempts grants are spent.
// Caller holds c.mu.
func (c *Coordinator) retryLocked(job *Job, reason string) {
	if job.attempt >= c.cfg.MaxAttempts {
		c.transition(job, "fail", nil, "",
			fmt.Sprintf("%s (attempt %d/%d, giving up)", reason, job.attempt, c.cfg.MaxAttempts))
		return
	}
	d := c.backoffLocked(job.attempt)
	job.state = JobPending
	job.notBefore = time.Now().Add(d)
	job.retries++
	job.errMsg = reason
	c.pending = append(c.pending, job)
	// Wake idle in-process workers once the backoff has passed.
	time.AfterFunc(d, func() {
		c.mu.Lock()
		c.wakeLocked()
		c.mu.Unlock()
	})
	c.transition(job, "backoff", nil, "", fmt.Sprintf("%s; retrying in %s", reason, d))
}

// backoffLocked returns the wait before re-granting attempt+1: the
// exponential base*2^(attempt-1) capped at RetryMax, jittered down to
// half to de-synchronize retry storms. Caller holds c.mu (the RNG).
func (c *Coordinator) backoffLocked(attempt int) time.Duration {
	d := c.cfg.RetryBase
	for i := 1; i < attempt && d < c.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(c.rng.Int63n(int64(half)+1))
	}
	return d
}

// transition records one lifecycle state change as a single FlightEvent,
// the record every observer reads: when the job is traced it closes the
// spans the change ends, it becomes the job's latest record (job is nil
// for a worker-only event) and joins the flight ring, it counts toward its
// kind, and it is logged when its kind logs. A terminal kind then finishes
// the job. Caller holds c.mu.
func (c *Coordinator) transition(job *Job, kind string, w *workerState, leaseID, detail string) {
	ev := FlightEvent{AtUS: time.Now().UnixMicro(), Kind: kind, LeaseID: leaseID, Detail: detail}
	if w != nil {
		ev.WorkerID = w.id
	}
	if job != nil {
		ev.JobID, ev.TraceID, ev.Attempt = job.spec.ID, job.traceID, job.attempt
		if job.traceID != "" {
			c.closeSpans(job, ev)
		}
		job.last = ev
	}
	c.flight.Record(ev)
	c.counts[kind]++
	if msg := loggedKinds[kind]; msg != "" && c.cfg.Log != nil {
		c.cfg.Log.Info(msg, "job", ev.JobID, "worker", ev.WorkerID,
			"attempt", ev.Attempt, "detail", ev.Detail)
	}
	if st, ok := terminalKinds[kind]; ok {
		c.finishLocked(job, st, detail)
	}
}

// loggedKinds are the transitions Config.Log hears about, with their
// messages; terminalKinds those that end a job, with its final state.
var (
	loggedKinds = map[string]string{
		"worker.register": "worker registered",
		"backoff":         "attempt failed; retrying",
		"worker.expire":   "worker expired",
	}
	terminalKinds = map[string]JobState{
		"cache.hit": JobSucceeded,
		"commit":    JobSucceeded,
		"fail":      JobFailed,
		"cancel":    JobCancelled,
	}
)

// finishLocked moves a job to a terminal state, from the job table into
// the retained history, and publishes its result; a failure or
// cancellation keeps reason. Caller holds c.mu.
func (c *Coordinator) finishLocked(job *Job, st JobState, reason string) {
	delete(c.jobs, job.spec.ID)
	now := time.Now()
	job.state = st
	job.errMsg = reason
	if st == JobSucceeded {
		job.errMsg = "" // a success clears the reason an earlier retry left
	}
	job.finished = now
	if job.started.IsZero() {
		job.started = now // cancelled before any lease grant
	}
	c.latency.Observe(uint64(max(now.Sub(job.submitted).Microseconds(), 0)))
	c.retained[job.spec.ID] = job
	c.history = append(c.history, job)
	for c.retain > 0 && len(c.history) > c.retain {
		delete(c.retained, c.history[0].spec.ID)
		c.history[0] = nil
		c.history = c.history[1:]
	}
	close(job.done)
}

// spanID derives the ID of the current attempt's queue wait, attempt or
// backoff span (role "q", "a" or "b") from the job's trace, so nothing is
// minted and a lease can name its attempt span before the span closes.
// The root's is "<trace>.job". "" when the job is not traced.
func (j *Job) spanID(role string) string {
	if j.traceID == "" {
		return ""
	}
	return j.traceID + "." + role + strconv.Itoa(j.attempt)
}

// closeSpans derives the coordinator spans ev ends from the job's previous
// record and records them, in closing order: a grant ends the queue wait;
// the job's next event ends the attempt that grant opened, with
// outcome "commit", "expired", "cancelled" or "error"; a retry records its
// backoff; a terminal event ends the root "job" span. Caller holds c.mu.
func (c *Coordinator) closeSpans(job *Job, ev FlightEvent) {
	at := time.UnixMicro(ev.AtUS)
	n := strconv.Itoa(job.attempt)
	span := func(role, name string, start, end time.Time, attrs map[string]string) {
		id, parent := job.spec.SpanID, "" // the root's ID rides the spec
		if role != "job" {
			id, parent = job.spanID(role), job.spec.SpanID
		}
		s := telemetry.SpanBetween(job.traceID, id, parent, "coordinator", name, start, end)
		s.Attrs = attrs
		c.cfg.Spans.Add(s)
		job.spans = append(job.spans, s)
	}
	attempt := func(outcome string) {
		if job.last.Kind == "lease.grant" {
			attrs := map[string]string{"attempt": n, "outcome": outcome}
			if job.worker != "" {
				attrs["worker"] = job.worker
			}
			span("a", "attempt", time.UnixMicro(job.last.AtUS), at, attrs)
		}
	}
	switch ev.Kind {
	case "lease.grant":
		// The wait runs from submission, or from the end of the backoff.
		start := job.submitted
		if !job.notBefore.IsZero() {
			start = job.notBefore
		}
		span("q", "queue.wait", start, at, map[string]string{"attempt": n})
	case "lease.expire":
		attempt("expired")
	case "commit":
		attempt("commit")
	case "cancel":
		attempt("cancelled")
	case "fail":
		attempt("error")
	case "backoff":
		attempt("error")
		// The backoff sleep is a first-class span: in the waterfall it
		// separates "waiting by policy" from "waiting for a free worker"
		// (the queue.wait segment that follows).
		span("b", "backoff", at, job.notBefore, map[string]string{"attempt": n, "reason": job.errMsg})
	}
	if st, ok := terminalKinds[ev.Kind]; ok {
		attrs := map[string]string{"state": string(st), "attempts": n, "retries": strconv.Itoa(job.retries)}
		if job.cacheHit {
			attrs["cacheHit"] = "true"
		}
		// The root "job" span deliberately has no spanBucket case: it covers
		// the whole lifetime and would paint over its children, so the
		// waterfall uses it for the time extent only.
		//hwgc:allow wire root job span is classified as slot 0 (undrawn) by design
		span("job", "job", job.submitted, at, attrs)
	}
}

// workerOf returns the registered worker with this ID, or — for one that
// has expired — a stand-in named by the ID, so attribution never fails.
func (c *Coordinator) workerOf(id string) *workerState {
	if w, ok := c.workers[id]; ok {
		return w
	}
	return &workerState{id: id, name: id}
}

// dropLeaseLocked removes a lease from its job and from the global and
// per-worker tables. Caller holds c.mu.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	l.job.lease = nil
	delete(c.leases, l.id)
	if w, ok := c.workers[l.workerID]; ok {
		delete(w.leases, l.id)
	}
}

// detachLocked takes an open job off the dispatch plane: it drops the
// job's lease, or pulls it out of the pending queue. Caller holds c.mu.
func (c *Coordinator) detachLocked(job *Job) {
	if job.lease != nil {
		c.dropLeaseLocked(job.lease)
		return
	}
	for i, p := range c.pending {
		if p == job {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// Cancel aborts a job that has not finished: pending jobs terminate
// immediately; a leased job is cancelled and its eventual completion is
// dropped. Used when a dispatching client gives up (context cancellation).
func (c *Coordinator) Cancel(jobID string, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if job, ok := c.jobs[jobID]; ok {
		c.cancelLocked(job, reason)
	}
}

// cancelLocked terminates an open job, dropping its queue entry or lease.
// Caller holds c.mu.
func (c *Coordinator) cancelLocked(job *Job, reason string) {
	c.detachLocked(job)
	c.transition(job, "cancel", nil, "", reason)
}

// janitor expires stale leases (re-queue with backoff), silent workers
// (their leases re-queue immediately, their affinity claims release), and
// jobs past JobTimeout (cancelled).
func (c *Coordinator) janitor() {
	defer close(c.stopped)
	tick := min(c.cfg.LeaseTTL, c.cfg.WorkerExpiry) / 4
	if j := c.cfg.JobTimeout / 4; j > 0 && j < tick {
		tick = j
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.sweep()
		}
	}
}

// sweep is one janitor pass.
func (c *Coordinator) sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) < c.cfg.WorkerExpiry {
			continue
		}
		delete(c.workers, id)
		for key, owner := range c.affinity {
			if owner == id {
				delete(c.affinity, key)
			}
		}
		c.transition(nil, "worker.expire", w,
			"", fmt.Sprintf("%s silent %s, releasing %d leases", w.name, c.cfg.WorkerExpiry, len(w.leases)))
		for _, l := range w.leases {
			c.dropLeaseLocked(l)
			w.expired++
			c.transition(l.job, "lease.expire", w, l.id, "worker expired")
			c.retryLocked(l.job, fmt.Sprintf("worker %s expired", w.name))
		}
	}
	for _, l := range c.leases {
		if l.expires.After(now) {
			continue
		}
		c.dropLeaseLocked(l)
		w := c.workerOf(l.workerID)
		w.expired++
		c.transition(l.job, "lease.expire", w, l.id, "lease TTL elapsed")
		c.retryLocked(l.job, fmt.Sprintf("lease %s expired", l.id))
	}
	if c.cfg.JobTimeout > 0 {
		for _, job := range c.jobs {
			if !job.started.IsZero() && now.Sub(job.started) >= c.cfg.JobTimeout {
				c.cancelLocked(job, fmt.Sprintf("job timeout: still open %s after its first lease", c.cfg.JobTimeout))
			}
		}
	}
}

// Drain stops the coordinator gracefully: new submissions fail with
// ErrDraining immediately, while leased jobs keep their leases (workers
// keep completing, expiries keep retrying) and queued jobs keep being
// dispatched. When ctx expires, every unfinished job is cancelled. Safe to
// call more than once.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		c.mu.Lock()
		open := len(c.jobs)
		c.mu.Unlock()
		if open == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			c.mu.Lock()
			for _, job := range c.jobs {
				c.cancelLocked(job, "coordinator drain deadline")
			}
			c.mu.Unlock()
			return nil
		case <-t.C:
		}
	}
}

// Job returns a snapshot of the open or retained job with this ID.
func (c *Coordinator) Job(id string) (JobInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		job, ok = c.retained[id]
	}
	if !ok {
		return JobInfo{}, false
	}
	return job.infoLocked(), true
}

// Jobs returns a snapshot of every open and retained job in submission
// order.
func (c *Coordinator) Jobs() []JobInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := make([]*Job, 0, len(c.jobs)+len(c.history))
	all = append(all, c.history...)
	for _, job := range c.jobs {
		all = append(all, job)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]JobInfo, len(all))
	for i, job := range all {
		out[i] = job.infoLocked()
	}
	return out
}

// Evicted reports whether id names a job this coordinator minted that has
// since left the retained history — distinct from an ID never issued.
func (c *Coordinator) Evicted(id string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n <= 0 || jobID(n) != id {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, open := c.jobs[id]
	_, kept := c.retained[id]
	return n <= c.seqJob && !open && !kept
}

// Dispatch submits one cell and waits for its terminal result, whose
// attribution and trace fields are set whatever the outcome. On ctx expiry
// the job is cancelled and ctx.Err() returned; a failed or otherwise
// cancelled job returns an error carrying its reason.
func (c *Coordinator) Dispatch(ctx context.Context, spec JobSpec, beat *telemetry.Beat) (JobResult, error) {
	job, err := c.Submit(spec, beat)
	if err != nil {
		return JobResult{}, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		c.Cancel(job.ID(), "dispatch abandoned: "+ctx.Err().Error())
		<-job.Done()
	}
	res := job.Result()
	switch res.State {
	case JobSucceeded:
		return res, nil
	case JobCancelled:
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		return res, fmt.Errorf("cluster: job %s cancelled: %s", job.ID(), res.Err)
	default:
		return res, fmt.Errorf("cluster: job %s failed: %s", job.ID(), res.Err)
	}
}
