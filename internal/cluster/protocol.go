// Package cluster is the distributed compute plane over the experiment
// fleet: a coordinator that hands out per-job leases to registered workers
// and commits each result at most once, the worker loop that takes those
// leases, and the versioned HTTP/JSON wire protocol binding them across
// machines (httpapi.go). An in-process loopback transport (loopback.go)
// runs the same worker loop against the coordinator with plain function
// calls, so single-node behavior, tests, and determinism are unchanged.
//
// The plane leans on the same property the result cache does: a cell's
// report is a pure function of its content-addressed inputs (see
// docs/SERVICE.md). That is what makes retries safe — a job re-run after a
// lost worker produces byte-identical output, and the at-most-once commit
// keyed by the cell's cache key guarantees a late duplicate can never
// double-count.
package cluster

import (
	"encoding/json"
	"errors"

	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

// ProtocolVersion names the wire protocol. Register rejects a mismatch, so
// a stale worker binary can never take leases it does not understand; bump
// it when a message changes meaning.
const ProtocolVersion = "hwgc-cluster-v1"

// Typed protocol failures. The HTTP layer maps them onto status codes and
// machine-readable error codes; the HTTP client maps those codes back, so
// errors.Is works identically over loopback and the wire.
var (
	// ErrProtocolMismatch reports a worker speaking a different wire
	// protocol version (HTTP 426).
	ErrProtocolMismatch = errors.New("cluster: wire protocol version mismatch")
	// ErrVersionMismatch reports a worker built from a different simulator
	// module version (HTTP 409). Mixing builds would poison the shared
	// content-addressed cache, so registration refuses it outright.
	ErrVersionMismatch = errors.New("cluster: simulator module version mismatch")
	// ErrUnknownWorker reports a worker ID the coordinator does not know —
	// typically expired after missed heartbeats (HTTP 404). The worker's
	// remedy is to re-register.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	// ErrDraining reports a coordinator that stopped accepting jobs (HTTP 503).
	ErrDraining = errors.New("cluster: coordinator draining, not accepting jobs")
	// ErrUnknownExperiment reports a job submission naming no served runner
	// (HTTP 400).
	ErrUnknownExperiment = errors.New("cluster: unknown experiment")
	// ErrQueueFull reports a submission refused because Config.MaxPending
	// jobs already wait for a lease (HTTP 503).
	ErrQueueFull = errors.New("cluster: job queue full")
)

// JobSpec describes one simulation cell on the wire.
type JobSpec struct {
	// ID is the coordinator-scoped job identifier, "job-%06d" (assigned by
	// Submit).
	ID string `json:"id"`
	// Experiment is the runner ID (experiments.All).
	Experiment string `json:"experiment"`
	// Options fixes the cell's scale and seed. The progress heartbeat rides
	// outside it (Options.Beat is json:"-"), so the spec is pure data.
	Options experiments.Options `json:"options"`
	// CacheKey is the cell's content address (experiments.CellKey, hex). It
	// is the at-most-once commit identity: every attempt of the job shares
	// it, so a duplicate completion is recognized and dropped, and a commit
	// lands in the result cache under the same key a local run would use.
	CacheKey string `json:"cacheKey"`
	// Affinity fingerprints the snapshot-store heap images the cell
	// instantiates (experiments.AffinityKey). Jobs sharing it are routed to
	// the same worker so copy-on-write image clones keep paying off across
	// the wire; empty means no affinity preference. Submit derives it when
	// the job misses the cache and goes pending, so a cache hit never pays
	// for it.
	Affinity string `json:"affinity,omitempty"`
	// TraceID is the job's distributed trace context and SpanID its root
	// span. Both are assigned by the coordinator when span recording is on
	// and ride the wire so worker-side spans join the same trace; empty
	// means tracing is disabled and workers record nothing.
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
}

// NewJobSpec builds the spec for one experiment cell, deriving the cache
// key from the runner ID and options (Submit adds the affinity key).
func NewJobSpec(experiment string, o experiments.Options) JobSpec {
	return JobSpec{
		Experiment: experiment,
		Options:    o,
		CacheKey:   experiments.CellKey(experiment, o).String(),
	}
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is the worker's stable human-readable identity (ledger manifests
	// attribute cells to it). Distinct workers should use distinct names.
	Name string `json:"name"`
	// Protocol must equal ProtocolVersion.
	Protocol string `json:"protocol"`
	// ModuleVersion must equal the coordinator's resultcache.ModuleVersion:
	// cell keys embed it, so results from a different build could never be
	// committed anyway.
	ModuleVersion string `json:"moduleVersion"`
	// Slots is the number of leases the worker runs concurrently (<= 0
	// means 1).
	Slots int `json:"slots,omitempty"`
	// Experiments lists the runner IDs the worker can execute (capability
	// check; empty means every runner the coordinator serves).
	Experiments []string `json:"experiments,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// WorkerID is the coordinator-assigned identity used on every later
	// call. It changes on re-registration.
	WorkerID string `json:"workerId"`
	// LeaseTTLMS is how long a granted lease stays valid without
	// completion, in milliseconds.
	LeaseTTLMS int64 `json:"leaseTtlMs"`
	// HeartbeatMS is how often the worker should heartbeat, in
	// milliseconds; missing ~3 in a row expires the worker.
	HeartbeatMS int64 `json:"heartbeatMs"`
}

// HeartbeatRequest keeps a worker alive and reports in-flight progress.
type HeartbeatRequest struct {
	WorkerID string `json:"workerId"`
	// Progress maps held lease IDs to simulated cycles so far, mirrored
	// into the coordinator-side job heartbeat (the service's
	// /v1/jobs/{id}/progress keeps advancing for remotely running cells).
	Progress map[string]uint64 `json:"progress,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. Known=false tells the worker
// the coordinator lost it (expiry or restart); the worker must re-register.
type HeartbeatResponse struct {
	Known bool `json:"known"`
}

// LeaseRequest asks for one job.
type LeaseRequest struct {
	WorkerID string `json:"workerId"`
}

// Lease grants a job to a worker until the deadline.
type Lease struct {
	ID  string  `json:"id"`
	Job JobSpec `json:"job"`
	// TTLMS is the lease validity window relative to receipt. It is
	// deliberately relative, not an absolute deadline: clock skew between
	// machines must never expire a lease early.
	TTLMS int64 `json:"ttlMs"`
	// Attempt is 1 for the first grant and increments on every retry.
	Attempt int `json:"attempt"`
	// SpanID is the coordinator-side span for this attempt; worker-side
	// spans parent under it. Empty when tracing is disabled.
	SpanID string `json:"spanId,omitempty"`

	// beat is the job's own progress heartbeat. It never crosses the wire:
	// an in-process (loopback) worker drives it directly, so progress is
	// live; a remote worker reports cycles on its heartbeat instead.
	beat *telemetry.Beat
}

// LeaseResponse carries the granted lease; a nil Lease means no work is
// available right now (the worker polls again).
type LeaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
}

// CompleteRequest reports a finished lease.
type CompleteRequest struct {
	WorkerID string `json:"workerId"`
	LeaseID  string `json:"leaseId"`
	JobID    string `json:"jobId"`
	// Report is the JSON-encoded experiments.Report on success.
	Report json.RawMessage `json:"report,omitempty"`
	// Error is the runner's failure, when it failed.
	Error string `json:"error,omitempty"`
	// CacheHit marks a result served from the worker's local result cache.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Spans carries the worker-side wall spans for this attempt (execution,
	// local cache hit), already stamped with the job's trace context. The
	// coordinator folds them into the job's span tree.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// CompleteResponse acknowledges a completion. Committed=false means the
// result was dropped — another attempt already committed, or the job was
// cancelled; the worker simply moves on.
type CompleteResponse struct {
	Committed bool `json:"committed"`
}

// Client is a worker's view of the coordinator: the four protocol calls.
// *Coordinator implements it directly (the loopback transport), and
// *HTTPClient implements it over the wire, so the worker loop is transport
// agnostic.
type Client interface {
	Register(req RegisterRequest) (RegisterResponse, error)
	Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error)
	Lease(req LeaseRequest) (LeaseResponse, error)
	Complete(req CompleteRequest) (CompleteResponse, error)
}

// parseCacheKey decodes a spec's hex cache key; ok=false for malformed keys
// (the job then simply skips cache integration rather than failing).
func parseCacheKey(s string) (resultcache.Key, bool) {
	k, err := resultcache.ParseKey(s)
	return k, err == nil
}
