package cluster

// The worker loop: register, heartbeat, then poll for leases and execute
// them. The loop is transport agnostic — it talks to any Client, so the
// same code runs in-process against a *Coordinator (loopback.go) and
// across machines through an *HTTPClient (cmd/hwgc-worker).

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

// WorkerConfig parameterizes a worker loop.
type WorkerConfig struct {
	// Name is the worker's stable identity in ledger attribution and logs.
	Name string
	// Client reaches the coordinator (a *Coordinator for loopback, an
	// *HTTPClient across machines). Required.
	Client Client
	// Runners is the experiment table this worker executes (nil means
	// experiments.All()); its IDs are advertised as capabilities.
	Runners []experiments.Runner
	// Slots is how many leases run concurrently (<= 0 means 1).
	Slots int
	// Cache, when set, serves cells from the worker's local result cache
	// and stores fresh results back (the completion is flagged CacheHit).
	Cache *resultcache.Cache
	// PollEvery is the idle lease-poll interval (<= 0 means 200ms). A
	// worker bound to an in-process *Coordinator is also woken the moment
	// a job is queued, so only remote workers wait out the interval.
	PollEvery time.Duration
	// Log, when set, receives structured worker events (registration,
	// lease/completion failures) with worker/job fields.
	Log *slog.Logger
}

// Worker runs the lease-execute-complete loop against a coordinator.
type Worker struct {
	cfg   WorkerConfig
	byID  map[string]experiments.Runner
	ids   []string
	local *Coordinator // cfg.Client when it is in-process, else nil

	mu       sync.Mutex
	workerID string
	inflight map[string]*telemetry.Beat // lease ID -> live progress

	killOnce sync.Once
	killed   chan struct{}
}

// NewWorker builds a worker; drive it with Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Client == nil {
		return nil, errors.New("cluster: WorkerConfig.Client is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 200 * time.Millisecond
	}
	runners := cfg.Runners
	if runners == nil {
		runners = experiments.All()
	}
	w := &Worker{
		cfg:      cfg,
		byID:     make(map[string]experiments.Runner, len(runners)),
		inflight: make(map[string]*telemetry.Beat),
		killed:   make(chan struct{}),
	}
	w.local, _ = cfg.Client.(*Coordinator)
	for _, r := range runners {
		w.byID[r.ID] = r
		w.ids = append(w.ids, r.ID)
	}
	return w, nil
}

// Kill abandons the worker immediately: in-flight leases are dropped
// without completion, heartbeats stop, and Run returns. It simulates a
// crashed machine — the coordinator recovers the work through lease
// expiry. Safe to call concurrently with Run; idempotent.
func (w *Worker) Kill() {
	w.killOnce.Do(func() { close(w.killed) })
}

// Killed reports whether Kill was called.
func (w *Worker) Killed() bool {
	select {
	case <-w.killed:
		return true
	default:
		return false
	}
}

// Run drives the worker until ctx is cancelled (graceful: in-flight leases
// finish and complete before it returns nil) or Kill is called (abrupt:
// in-flight work is abandoned). Registration and version errors are fatal;
// transient transport errors retry.
func (w *Worker) Run(ctx context.Context) error {
	reg, err := w.register(ctx)
	if err != nil {
		return err
	}
	heartbeatEvery := time.Duration(reg.HeartbeatMS) * time.Millisecond
	if heartbeatEvery <= 0 {
		heartbeatEvery = 3 * time.Second
	}

	// The heartbeat goroutine runs until Run returns; stopping heartbeats
	// on Kill is exactly what lets the coordinator expire us.
	hbCtx, stopHB := context.WithCancel(context.Background())
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		t := time.NewTicker(heartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-w.killed:
				return
			case <-t.C:
				w.heartbeat(ctx)
			}
		}
	}()

	var slots sync.WaitGroup
	errc := make(chan error, w.cfg.Slots)
	for i := 0; i < w.cfg.Slots; i++ {
		slots.Add(1)
		go func() {
			defer slots.Done()
			errc <- w.slotLoop(ctx)
		}()
	}
	slots.Wait()
	stopHB()
	hbDone.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	return nil
}

// register announces the worker, retrying transient failures until ctx
// expires. Protocol and module-version mismatches are permanent and fatal.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	req := RegisterRequest{
		Name:          w.cfg.Name,
		Protocol:      ProtocolVersion,
		ModuleVersion: resultcache.ModuleVersion(),
		Slots:         w.cfg.Slots,
		Experiments:   w.ids,
	}
	for {
		resp, err := w.cfg.Client.Register(req)
		if err == nil {
			w.mu.Lock()
			w.workerID = resp.WorkerID
			w.mu.Unlock()
			w.logw("registered", "worker", w.cfg.Name, "workerId", resp.WorkerID)
			return resp, nil
		}
		if errors.Is(err, ErrProtocolMismatch) || errors.Is(err, ErrVersionMismatch) {
			return RegisterResponse{}, err
		}
		w.logw("register failed; retrying", "worker", w.cfg.Name, "err", err)
		select {
		case <-ctx.Done():
			return RegisterResponse{}, ctx.Err()
		case <-w.killed:
			return RegisterResponse{}, nil
		case <-time.After(w.cfg.PollEvery):
		}
	}
}

// heartbeat sends one liveness ping with in-flight progress; on Known=false
// (coordinator lost or restarted) it re-registers.
func (w *Worker) heartbeat(ctx context.Context) {
	w.mu.Lock()
	req := HeartbeatRequest{WorkerID: w.workerID}
	// In-process leases drive the jobs' own beats; mirroring a stale read
	// back with Set would only roll them back.
	if w.local == nil && len(w.inflight) > 0 {
		req.Progress = make(map[string]uint64, len(w.inflight))
		for leaseID, beat := range w.inflight {
			req.Progress[leaseID] = beat.Cycles()
		}
	}
	w.mu.Unlock()
	resp, err := w.cfg.Client.Heartbeat(req)
	if err != nil {
		w.logw("heartbeat failed", "worker", w.cfg.Name, "err", err)
		return
	}
	if !resp.Known {
		w.logw("coordinator lost us; re-registering", "worker", w.cfg.Name)
		_, _ = w.register(ctx)
	}
}

// slotLoop is one slot's lease-execute-complete cycle.
func (w *Worker) slotLoop(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return nil // graceful: nothing in flight in this slot
		case <-w.killed:
			return nil
		default:
		}
		w.mu.Lock()
		id := w.workerID
		w.mu.Unlock()
		var wake <-chan struct{} // nil (never ready) for remote workers
		if w.local != nil {
			wake = w.local.wakeup()
		}
		resp, err := w.cfg.Client.Lease(LeaseRequest{WorkerID: id})
		if err != nil {
			if errors.Is(err, ErrUnknownWorker) {
				if _, rerr := w.register(ctx); rerr != nil {
					return rerr
				}
				continue
			}
			w.logw("lease poll failed", "worker", w.cfg.Name, "err", err)
		}
		if err != nil || resp.Lease == nil {
			select {
			case <-ctx.Done():
				return nil
			case <-w.killed:
				return nil
			case <-wake:
			case <-time.After(w.cfg.PollEvery):
			}
			continue
		}
		w.execute(resp.Lease)
	}
}

// execute runs one leased job and reports completion. A graceful shutdown
// (ctx cancellation in slotLoop) never interrupts execution — the lease is
// seen through to Complete; only Kill abandons it.
func (w *Worker) execute(l *Lease) {
	runner, ok := w.byID[l.Job.Experiment]
	if !ok {
		// Capability filtering should make this unreachable; report it
		// rather than stalling the lease to expiry.
		w.complete(l, CompleteRequest{
			Error: fmt.Sprintf("worker has no runner %q", l.Job.Experiment),
		})
		return
	}

	// An in-process lease carries the job's own heartbeat, so progress is
	// live; a remote worker reports its private beat on the heartbeat.
	beat := l.beat
	if beat == nil {
		beat = &telemetry.Beat{}
	}
	w.mu.Lock()
	w.inflight[l.ID] = beat
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.inflight, l.ID)
		w.mu.Unlock()
	}()

	opts := l.Job.Options
	opts.Beat = beat
	started := time.Now()

	// Local result cache first: affinity dispatch makes repeat keys land
	// here, so warm workers answer without simulating.
	var key resultcache.Key
	haveKey := false
	if k, ok := parseCacheKey(l.Job.CacheKey); ok {
		key = k
		haveKey = true
		if w.cfg.Cache != nil {
			if b, ok := w.cfg.Cache.Get(key); ok {
				if _, err := experiments.DecodeReport(b); err == nil {
					w.complete(l, CompleteRequest{Report: b, CacheHit: true,
						Spans: w.leaseSpans(l, "worker.cache.hit", started)})
					return
				}
			}
		}
	}

	// Run the cell in a child goroutine so a Kill abandons it mid-flight
	// like a real crash would: the runner keeps burning its goroutine until
	// it finishes, but nothing is ever completed for it. Panics inside the
	// runner are converted to attempt errors (same shielding as the fleet).
	type outcome struct {
		rep experiments.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var out outcome
		func() {
			defer func() {
				if p := recover(); p != nil {
					out.err = fmt.Errorf("%s: panic: %v\n%s", runner.ID, p, debug.Stack())
				}
			}()
			out.rep, out.err = runner.Run(opts)
		}()
		done <- out
	}()
	var out outcome
	select {
	case <-w.killed:
		return
	case out = <-done:
	}

	if out.err != nil {
		w.complete(l, CompleteRequest{Error: out.err.Error(),
			Spans: w.leaseSpans(l, "worker.run", started)})
		return
	}
	b, err := experiments.EncodeReport(out.rep)
	if err != nil {
		w.complete(l, CompleteRequest{Error: "encode report: " + err.Error(),
			Spans: w.leaseSpans(l, "worker.run", started)})
		return
	}
	if w.cfg.Cache != nil && haveKey {
		_ = w.cfg.Cache.Put(key, b) // best effort; a miss only loses reuse
	}
	w.complete(l, CompleteRequest{Report: b,
		Spans: w.leaseSpans(l, "worker.run", started)})
}

// leaseSpans builds the worker-side span for one lease execution — nil
// when the lease carries no trace context (tracing disabled). The span ID
// derives from the lease ID (coordinator-unique) and parents under the
// coordinator's attempt span, so the tree assembles without a shared ID
// authority.
func (w *Worker) leaseSpans(l *Lease, name string, start time.Time) []telemetry.Span {
	if l.Job.TraceID == "" {
		return nil
	}
	s := telemetry.SpanBetween(l.Job.TraceID, l.ID+".w", l.SpanID,
		"worker:"+w.cfg.Name, name, start, time.Now())
	s.Attrs = map[string]string{"worker": w.cfg.Name, "job": l.Job.ID}
	return []telemetry.Span{s}
}

// complete fills in the lease identity and sends the completion.
func (w *Worker) complete(l *Lease, req CompleteRequest) {
	w.mu.Lock()
	req.WorkerID = w.workerID
	w.mu.Unlock()
	req.LeaseID = l.ID
	req.JobID = l.Job.ID
	resp, err := w.cfg.Client.Complete(req)
	switch {
	case err != nil:
		w.logw("complete failed", "worker", w.cfg.Name, "job", l.Job.ID,
			"attempt", l.Attempt, "err", err)
	case !resp.Committed && req.Error == "":
		w.logw("result dropped (duplicate or cancelled)", "worker", w.cfg.Name,
			"job", l.Job.ID, "attempt", l.Attempt)
	}
}

func (w *Worker) logw(msg string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Info(msg, args...)
	}
}

// Registered reports whether the worker currently holds a coordinator
// identity.
func (w *Worker) Registered() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.workerID != ""
}

// InFlight returns how many leases the worker is executing right now.
func (w *Worker) InFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inflight)
}

// Slots returns the worker's concurrency capacity.
func (w *Worker) Slots() int { return w.cfg.Slots }

// HealthHandler serves fleet probe endpoints for the worker:
//
//	GET /healthz  200 while the process is up (liveness)
//	GET /readyz   200 once registered with a free lease slot, 503 otherwise
//
// cmd/hwgc-worker mounts it on -health-addr so orchestrators can probe
// workers without speaking the cluster protocol.
func (w *Worker) HealthHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !w.Registered() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "not registered")
			return
		}
		if w.Killed() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "killed")
			return
		}
		if w.InFlight() >= w.Slots() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "at lease capacity")
			return
		}
		fmt.Fprintln(rw, "ready")
	})
	return mux
}
