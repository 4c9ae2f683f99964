// Package service turns the deterministic experiment fleet into a
// long-running simulation service: an HTTP/JSON API (server.go, daemon.go)
// over a cluster coordinator, which holds the job table and owns
// admission, the content-addressed result cache, placement on in-process
// or remote workers, retries, deadlines, and attribution. Because reports
// are byte-identical at any fleet width, a cache hit is provably identical
// to recomputing the cell.
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

// Submission errors, shared with the coordinator that raises them. The
// HTTP layer maps these to status codes.
var (
	// ErrDraining is returned by Submit once a drain has begun.
	ErrDraining = cluster.ErrDraining
	// ErrQueueFull is returned by Submit when a cache miss finds the
	// coordinator's pending queue at its MaxPending bound.
	ErrQueueFull = cluster.ErrQueueFull
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

// stateOf names a coordinator job state in the service's vocabulary.
func stateOf(st cluster.JobState) State {
	switch st {
	case cluster.JobPending:
		return StateQueued
	case cluster.JobLeased:
		return StateRunning
	}
	return State(st) // the terminal states share their names
}

// terminal reports whether st is a finished state.
func (st State) terminal() bool {
	return st == StateSucceeded || st == StateFailed || st == StateCancelled
}

// Config parameterizes a Scheduler. The zero value is usable: GOMAXPROCS
// in-process workers and a private coordinator serving every experiment
// uncached. Admission, per-job deadlines, and the retained history are
// coordinator settings (cluster.Config MaxPending, JobTimeout,
// RetainFinished).
type Config struct {
	// Workers is how many in-process loopback workers execute the
	// coordinator's leases (0 means GOMAXPROCS; negative means none,
	// leaving execution to remote hwgc-worker processes).
	Workers int
	// Coordinator executes and records every job: it owns the job table,
	// the result cache, placement, retries, and attribution, and its hub
	// carries the metrics. nil means a private coordinator over
	// experiments.All() with no cache. The scheduler owns it from New on:
	// Drain drains and closes it.
	Coordinator *cluster.Coordinator
	// Ledger, when set, receives one run manifest per finished job, so a
	// served fleet leaves the same durable trail as a hwgc-bench run.
	Ledger *ledger.Store
}

// Job is a handle on one submitted simulation cell; its record lives in
// the coordinator (read it through View).
type Job struct {
	id   string
	done <-chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state and, with a
// ledger, once its manifest is appended.
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

// Scheduler is the service's view over a coordinator, which holds the
// only job table. The scheduler submits cells, renders the coordinator's
// records, and owns what the coordinator cannot know about: the
// in-process workers and the ledger.
type Scheduler struct {
	coord  *cluster.Coordinator
	pool   *cluster.LoopbackPool // nil when Config.Workers < 0
	ledger *ledger.Store

	// gate orders every accepted Submit's manifests.Add before Drain's
	// Wait: Submit holds it shared; Drain takes it once the coordinator
	// refuses new jobs.
	gate      sync.RWMutex
	manifests sync.WaitGroup // ledger appends still to be written
}

// New starts a scheduler and its in-process workers. Stop it with Drain.
func New(cfg Config) *Scheduler {
	coord := cfg.Coordinator
	if coord == nil {
		coord = cluster.NewCoordinator(cluster.Config{})
	}
	s := &Scheduler{coord: coord, ledger: cfg.Ledger}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 0 {
		pool, err := cluster.StartLoopbackWorkers(coord, workers, cluster.WorkerConfig{Name: "local"})
		if err != nil {
			panic(err) // unreachable: the workers' client is the coordinator itself
		}
		s.pool = pool
	}
	return s
}

// Hub returns the telemetry hub carrying the coordinator and cache
// metrics: the coordinator's. Never nil.
func (s *Scheduler) Hub() *telemetry.Hub { return s.coord.Hub() }

// ExperimentIDs returns the served runner IDs, sorted.
func (s *Scheduler) ExperimentIDs() []string { return s.coord.ExperimentIDs() }

// Runners returns the served runner table, sorted by ID.
func (s *Scheduler) Runners() []experiments.Runner { return s.coord.Runners() }

// Submit hands one cell to the coordinator. It fails fast with
// UnknownExperimentError, ErrDraining, or ErrQueueFull; it never blocks
// on a full queue, and a cache hit is never refused.
func (s *Scheduler) Submit(experiment string, o experiments.Options) (*Job, error) {
	// The content address is the costliest step of a hit: compute it
	// before any lock is taken.
	spec := cluster.NewJobSpec(experiment, o)
	s.gate.RLock()
	job, err := s.coord.Submit(spec, &telemetry.Beat{})
	if err == nil && s.ledger != nil {
		s.manifests.Add(1)
	}
	s.gate.RUnlock()
	if errors.Is(err, cluster.ErrUnknownExperiment) {
		return nil, &UnknownExperimentError{Name: experiment, Valid: s.ExperimentIDs()}
	}
	if err != nil {
		return nil, err
	}
	h := &Job{id: job.ID(), done: job.Done()}
	if s.ledger != nil {
		// Done closes only after the manifest is appended, so a waiter that
		// sees the job finish also sees its manifest. The append runs
		// outside the coordinator lock; a failed one only loses the record.
		done := make(chan struct{})
		h.done = done
		go func() {
			defer s.manifests.Done()
			_, _ = s.ledger.Append(jobManifest(job.Info()))
			close(done)
		}()
	}
	return h, nil
}

// View returns the job's current state.
func (s *Scheduler) View(id string) (View, bool) {
	info, ok := s.coord.Job(id)
	if !ok {
		return View{}, false
	}
	return viewOf(info), true
}

// Views returns every job in submission order.
func (s *Scheduler) Views() []View {
	infos := s.coord.Jobs()
	out := make([]View, len(infos))
	for i, info := range infos {
		out[i] = viewOf(info)
	}
	return out
}

// Evicted reports whether id named a finished job that has since been
// evicted from the coordinator's retained history (RetainFinished). The
// HTTP layer maps this to 410 Gone, distinct from 404 for IDs that never
// existed.
func (s *Scheduler) Evicted(id string) bool { return s.coord.Evicted(id) }

func viewOf(info cluster.JobInfo) View {
	return View{
		ID:         info.Spec.ID,
		Experiment: info.Spec.Experiment,
		Options:    info.Spec.Options,
		State:      stateOf(info.State),
		CacheKey:   info.Spec.CacheKey,
		CacheHit:   info.CacheHit,
		Worker:     info.Worker,
		Attempts:   info.Attempts,
		Retries:    info.Retries,
		TraceID:    info.TraceID,
		Report:     info.Report,
		Error:      info.Err,
		Submitted:  info.Submitted,
		Started:    stamp(info.Started),
		Finished:   stamp(info.Finished),
	}
}

// stamp renders a lifecycle time for JSON: nil until it has happened.
func stamp(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// JobManifest rebuilds a finished job's run manifest — the same document
// the ledger receives — so the HTTP layer can render it (the HTML report
// endpoint). ok reports whether the job exists; a known-but-unfinished job
// returns (nil, true), which the handler maps to 409 Conflict.
func (s *Scheduler) JobManifest(id string) (m *ledger.Manifest, ok bool) {
	info, ok := s.coord.Job(id)
	if !ok {
		return nil, false
	}
	if !stateOf(info.State).terminal() {
		return nil, true
	}
	return jobManifest(info), true
}

// jobManifest records one finished job as a single-experiment run manifest.
func jobManifest(info cluster.JobInfo) *ledger.Manifest {
	o := info.Spec.Options
	m := ledger.NewManifest("hwgc-serve", ledger.Scale{
		GCs: o.GCs, Seed: o.Seed, Quick: o.Quick, Shrink: o.Shrink,
	})
	rec := ledger.Experiment{
		ID:       info.Spec.Experiment,
		CellKey:  info.Spec.CacheKey,
		CacheHit: info.CacheHit,
		Worker:   info.Worker,
		Attempts: info.Attempts,
		Retries:  info.Retries,
		TraceID:  info.TraceID,
		Spans:    info.Spans,
		Error:    info.Err,
		WallMS:   float64(info.Finished.Sub(info.Started).Microseconds()) / 1e3,
	}
	m.Host.WallMS = rec.WallMS
	if len(info.Report) > 0 {
		if rep, err := experiments.DecodeReport(info.Report); err == nil {
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
	info, ok := s.coord.Job(id)
	if !ok {
		return Progress{}, false
	}
	p := Progress{
		ID:         info.Spec.ID,
		Experiment: info.Spec.Experiment,
		State:      stateOf(info.State),
		CacheHit:   info.CacheHit,
		Submitted:  info.Submitted,
		Started:    stamp(info.Started),
		// The beat is atomic, read outside the coordinator lock so a hot
		// simulation never contends with the job table.
		CyclesSimulated: info.Beat.Cycles(),
	}
	if !info.Started.IsZero() {
		end := info.Finished
		if end.IsZero() {
			end = time.Now()
		}
		p.RunningMS = float64(end.Sub(info.Started).Microseconds()) / 1e3
	}
	return p, true
}

// Draining reports whether a drain has begun — GET /readyz answers 503
// once it has, so load balancers stop routing new submissions here.
func (s *Scheduler) Draining() bool { return s.coord.Status().Draining }

// Drain stops the scheduler gracefully: new submissions fail with
// ErrDraining immediately, queued and in-flight jobs run to completion,
// and once ctx expires any still-open jobs are cancelled (coordinator
// Drain). Every finished job's manifest is written before Drain returns;
// then the in-process workers stop and the coordinator closes. Drain
// returns by the deadline even while an in-process simulation is still
// running; it is safe to call more than once.
func (s *Scheduler) Drain(ctx context.Context) error {
	_ = s.coord.Drain(ctx)
	// The coordinator now refuses new jobs; once the in-flight Submits
	// leave the gate, every manifest to write is counted.
	s.gate.Lock()
	s.gate.Unlock()
	s.manifests.Wait()
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
