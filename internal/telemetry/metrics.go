// Package telemetry is the unified observability layer for the simulator:
// a hierarchical metrics registry (counters, gauges, histograms, rates)
// that every simulated unit registers into under stable dotted names, a
// cycle-driven, bounded recorder that turns registered metrics into
// deterministic time series, and a structured event tracer that emits per-unit spans and
// instant events in Chrome trace_event format (openable in Perfetto or
// chrome://tracing) and JSONL.
//
// Design rules, in order:
//
//   - Deterministic: everything is stamped with the simulation cycle, never
//     wall-clock time, and all serialization orders are stable, so two
//     identical runs produce byte-identical output.
//   - Cheap enough to leave on: recording a metric is a field increment; a
//     span is an append into a preallocated-growth slice.
//   - Free when off: every recording method is nil-safe, so units hold nil
//     metric/tracer pointers until telemetry is attached and the disabled
//     hot path is a single nil check with no allocation.
//
// The package depends only on the standard library and is imported by
// internal/sim (which re-exports the statistics helpers that used to live
// there), so it must not import any other internal package.
package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing count (requests issued, objects
// marked). All methods are nil-safe no-ops so disabled units can hold a nil
// counter. Updates are atomic, so one counter instance may be shared by
// concurrent writers (a hub's coordinator-level registry and the simulation
// service rely on this); the other metric kinds stay unsynchronized and need external
// locking or per-goroutine instances for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Rate is a counter whose per-interval delta the recorder reports as a
// time-resolved rate (requests per cycle, bytes per cycle). The cumulative
// total still appears in the end-of-run summary. Like Counter, updates are
// atomic.
type Rate struct{ v atomic.Uint64 }

// Inc adds 1.
func (r *Rate) Inc() {
	if r != nil {
		r.v.Add(1)
	}
}

// Add adds n.
func (r *Rate) Add(n uint64) {
	if r != nil {
		r.v.Add(n)
	}
}

// Value returns the cumulative total (0 on nil).
func (r *Rate) Value() uint64 {
	if r == nil {
		return 0
	}
	return r.v.Load()
}

// Histogram is a power-of-two bucketed histogram for positive integer
// observations (latencies, sizes, access counts). Quantiles interpolate
// within the winning bucket, which is exact for uniform in-bucket spreads
// and within a factor of two otherwise.
type Histogram struct {
	buckets [65]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records v. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[log2ceil(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest observation.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Merge folds o's observations into h (bucket-wise sums; max of maxes).
// Used when per-run histograms from a hub's forked children are
// aggregated; merging is commutative, so the aggregate is independent of
// run completion order. Nil-safe on both sides.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Bucket returns the count of observations v with log2ceil(v) == i.
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// Quantile returns the q-quantile (0 <= q <= 1), interpolating linearly
// within the winning power-of-two bucket. The top bucket is clamped to the
// observed maximum, so tail quantiles of bounded distributions stay tight.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		prev := cum
		cum += b
		if float64(cum) >= rank {
			lo, hi := bucketBounds(i)
			if m := float64(h.max); hi > m {
				hi = m
			}
			frac := (rank - float64(prev)) / float64(b)
			return lo + (hi-lo)*frac
		}
	}
	return float64(h.max)
}

// bucketBounds returns the half-open value range (lo, hi] covered by bucket
// i: bucket 0 holds v <= 1, bucket i holds 2^(i-1) < v <= 2^i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f max=%d", h.Count(), h.Mean(), h.Max())
}

func log2ceil(v uint64) int {
	n := 0
	for (uint64(1) << n) < v {
		n++
		if n == 64 {
			break
		}
	}
	return n
}

// Sample retains raw float observations for exact quantiles (used for the
// latency CDFs in the motivation experiments).
type Sample struct {
	vals   []float64
	sorted bool
}

// Observe records v.
func (s *Sample) Observe(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.vals) }

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	idx := int(q * float64(len(s.vals)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.vals) {
		idx = len(s.vals) - 1
	}
	return s.vals[idx]
}

// Mean returns the arithmetic mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// CDF returns (value, cumulative fraction) pairs at each observation,
// suitable for plotting the paper's Figure 1b.
func (s *Sample) CDF() []CDFPoint {
	s.sort()
	out := make([]CDFPoint, len(s.vals))
	for i, v := range s.vals {
		out[i] = CDFPoint{Value: v, Fraction: float64(i+1) / float64(len(s.vals))}
	}
	return out
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// Series records a value sampled at fixed cycle intervals (bandwidth over
// time in Figure 16).
type Series struct {
	Interval uint64 // cycles per sample
	Points   []float64

	acc     float64
	lastBin uint64
}

// NewSeries creates a series with the given sampling interval in cycles.
func NewSeries(interval uint64) *Series {
	if interval == 0 {
		interval = 1
	}
	return &Series{Interval: interval}
}

// Add accumulates amount at the given cycle; samples are binned by
// cycle/Interval and missing bins are zero-filled.
func (s *Series) Add(cycle uint64, amount float64) {
	bin := cycle / s.Interval
	for s.lastBin < bin {
		s.Points = append(s.Points, s.acc)
		s.acc = 0
		s.lastBin++
	}
	s.acc += amount
}

// Finish flushes the current bin and returns the points.
func (s *Series) Finish() []float64 {
	s.Points = append(s.Points, s.acc)
	s.acc = 0
	s.lastBin++
	return s.Points
}
