package telemetry

// Wall-clock span recording for the distributed control plane. The sim
// tracer (tracer.go) stamps events in simulated cycles and belongs to the
// hardware units; spans here are stamped in wall time and belong to the
// machinery *around* the simulation — job queues, leases, retries, RPCs.
// The two never mix: simulated results stay bit-identical whether or not
// wall spans are recorded.
//
// The recorder follows the same discipline as the tracer: a nil *WallSpans
// is the disabled fast path (every method returns immediately and allocates
// nothing), the buffer is bounded (earliest spans kept, the rest counted in
// Dropped), and snapshot order is deterministic (insertion order).

import (
	"fmt"
	"sync"
	"time"
)

// Span is one completed wall-clock operation in a distributed trace. A
// trace is the full lifecycle of one unit of work (a cluster job); its
// spans form a tree through Parent. Timestamps are Unix microseconds so
// spans serialize compactly and compare across machines without timezone
// ambiguity (modulo clock skew, which the span model tolerates: durations
// are always measured on a single clock).
type Span struct {
	// TraceID groups every span of one job's lifecycle, across coordinator,
	// workers, and retries.
	TraceID string `json:"traceId"`
	// SpanID identifies this span within the trace.
	SpanID string `json:"spanId"`
	// Parent is the enclosing span's ID ("" for the trace root).
	Parent string `json:"parent,omitempty"`
	// Name says what happened: "job", "queue.wait", "attempt", "backoff",
	// "worker.run", ...
	Name string `json:"name"`
	// Unit names the component that produced the span, e.g. "coordinator"
	// or "worker:lab-2".
	Unit string `json:"unit,omitempty"`
	// StartUS is the wall-clock start in Unix microseconds; DurUS the
	// duration in microseconds.
	StartUS int64 `json:"startUs"`
	DurUS   int64 `json:"durUs"`
	// Attrs carries small string annotations (worker name, attempt number,
	// outcome). Maps marshal with sorted keys, so output is deterministic.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Start returns the span's start as a time.Time.
func (s Span) Start() time.Time { return time.UnixMicro(s.StartUS) }

// End returns the span's end as a time.Time.
func (s Span) End() time.Time { return time.UnixMicro(s.StartUS + s.DurUS) }

// SpanBetween builds a span covering [start, end] on one clock.
func SpanBetween(traceID, spanID, parent, unit, name string, start, end time.Time) Span {
	dur := end.Sub(start).Microseconds()
	if dur < 0 {
		dur = 0
	}
	return Span{
		TraceID: traceID, SpanID: spanID, Parent: parent,
		Unit: unit, Name: name,
		StartUS: start.UnixMicro(), DurUS: dur,
	}
}

// DefaultMaxSpans bounds a recorder's buffer. Control-plane spans are rare
// (a handful per job), so the default covers thousands of jobs.
const DefaultMaxSpans = 1 << 16

// WallSpans records completed wall-clock spans. A nil *WallSpans is the
// disabled fast path: every method returns immediately and allocates
// nothing, so callers record unconditionally. Unlike the single-goroutine
// sim tracer it is safe for concurrent use — spans arrive from HTTP
// handlers and janitor goroutines.
type WallSpans struct {
	// MaxSpans overrides DefaultMaxSpans when > 0.
	MaxSpans int

	mu       sync.Mutex
	spans    []Span
	dropped  uint64
	seqTrace uint64
}

// NewWallSpans returns an enabled recorder with the default bound.
func NewWallSpans() *WallSpans { return &WallSpans{} }

func (r *WallSpans) capLocked() int {
	if r.MaxSpans > 0 {
		return r.MaxSpans
	}
	return DefaultMaxSpans
}

// NewTraceID mints a recorder-unique trace identifier ("" on nil — a
// disabled recorder propagates no context).
func (r *WallSpans) NewTraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	r.seqTrace++
	n := r.seqTrace
	r.mu.Unlock()
	return fmt.Sprintf("t-%06d", n)
}

// Add records one completed span. Once the bound is reached the earliest
// spans are kept and the rest counted in Dropped — bounded memory,
// deterministic retention, same policy as the sim tracer. Nil-safe.
//
//hwgc:hotpath
func (r *WallSpans) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) >= r.capLocked() {
		r.dropped++
		r.mu.Unlock()
		return
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Snapshot returns a copy of the recorded spans in insertion order.
func (r *WallSpans) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Dropped returns how many spans were discarded after the buffer filled.
func (r *WallSpans) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of recorded spans.
func (r *WallSpans) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}
