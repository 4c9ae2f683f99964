package cluster

// The flight recorder: a bounded ring of structured control-plane lifecycle
// events. Where wall spans (internal/telemetry) measure *durations* of a
// job's phases, flight events record *moments* — a lease granted, a lease
// expired, a backoff scheduled, a steal, a duplicate completion dropped —
// with enough identity (job, trace, worker, lease) to stitch them back into
// the span timeline.
//
// The retention policy is the opposite of the span recorder's on purpose:
// spans keep the EARLIEST entries (a trace's root context must survive),
// while the flight recorder keeps the LATEST — it answers "what just
// happened to the cluster", so the ring drops the oldest events and counts
// them in Dropped.

import "sync"

// FlightEvent is one structured control-plane moment. It is also the
// coordinator's lifecycle record: each job state change stamps exactly one
// (Coordinator.transition), and the ring, the counters, the logs and the
// job's spans are all fed from it.
type FlightEvent struct {
	// Seq is a recorder-unique, monotonically increasing sequence number;
	// it survives ring wrap, so consumers can detect gaps (Dropped events).
	Seq uint64 `json:"seq"`
	// AtUS is the wall-clock timestamp in Unix microseconds.
	AtUS int64 `json:"atUs"`
	// Kind names the event: "submit", "cache.hit", "lease.grant",
	// "lease.expire", "worker.register", "worker.expire", "steal",
	// "backoff", "duplicate.drop", "commit", "fail", "cancel".
	Kind string `json:"kind"`
	// JobID / TraceID / WorkerID / LeaseID identify the participants;
	// any may be empty when not applicable.
	JobID    string `json:"jobId,omitempty"`
	TraceID  string `json:"traceId,omitempty"`
	WorkerID string `json:"workerId,omitempty"`
	LeaseID  string `json:"leaseId,omitempty"`
	// Attempt is the job attempt number in flight when the event fired.
	Attempt int `json:"attempt,omitempty"`
	// Detail is a short human-readable elaboration (backoff duration,
	// failure reason, ...).
	Detail string `json:"detail,omitempty"`
}

// DefaultFlightEvents bounds the recorder ring.
const DefaultFlightEvents = 4096

// FlightRecorder keeps the last N control-plane events in a fixed ring.
// A nil *FlightRecorder is the disabled fast path (all methods no-op).
// Safe for concurrent use.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    []FlightEvent
	next    int // ring write cursor
	size    int // number of valid entries (<= len(ring))
	seq     uint64
	dropped uint64
}

// NewFlightRecorder returns a recorder holding the last max events
// (<= 0 means DefaultFlightEvents).
func NewFlightRecorder(max int) *FlightRecorder {
	if max <= 0 {
		max = DefaultFlightEvents
	}
	return &FlightRecorder{ring: make([]FlightEvent, max)}
}

// Record appends one event, stamping Seq; once the ring is full the oldest
// event is overwritten and counted in Dropped. Nil-safe.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	if f.size == len(f.ring) {
		f.dropped++
	} else {
		f.size++
	}
	f.ring[f.next] = ev
	f.next = (f.next + 1) % len(f.ring)
	f.mu.Unlock()
}

// Events returns the recorded events oldest-first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, f.size)
	start := f.next - f.size
	for i := 0; i < f.size; i++ {
		out = append(out, f.ring[(start+i+len(f.ring))%len(f.ring)])
	}
	return out
}

// Dropped returns how many events were overwritten after the ring filled.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Len returns the number of retained events.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}
