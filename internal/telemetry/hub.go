package telemetry

import (
	"io"
	"sort"
	"strconv"
	"sync"
)

// Hub bundles the telemetry surfaces a run attaches to its simulated
// units: the metrics registry, the bounded time-series recorder fed by the
// engine's cycle probe (Sample), and (optionally) the structured event
// tracer. A nil *Hub disables everything.
//
// A hub travels with the run that uses it (experiments.Options.Tel,
// core.Config.Tel); there is no process-wide hub. Every simulation run
// forks a private child via ForRun, so concurrent runs never share mutable
// telemetry state and recording pays no synchronization. The aggregate
// views (Snapshot, WriteSummary, RecordedSeries, WriteSamplesJSONL,
// WriteTraceChrome) fold the hub and its children back together. The hub's
// own registry is for coordinator-level metrics (a result cache, a
// service): counters are atomic, and gauge/histogram users must bring their
// own locking.
type Hub struct {
	Reg   *Registry
	Trace *Tracer

	every uint64    // probe interval in cycles
	ticks int       // probe ticks taken (telemetry.sampler.samples)
	rec   *Recorder // nil until EnableRecording

	mu       sync.Mutex // guards Trace and rec (inherited by forks) and the fork list
	perLabel map[string]int
	children []child
}

// child is one forked per-run hub. seq numbers children that share a label
// in fork order, so merged series/trace output has stable names.
type child struct {
	label string
	seq   int
	hub   *Hub
}

// name returns the child's unique run name ("xalan/hw#2"), or "main" for
// the hub's own surfaces (seq -1, see runs).
func (c child) name() string {
	if c.seq < 0 {
		return c.label
	}
	return c.label + "#" + strconv.Itoa(c.seq)
}

// NewHub returns a hub whose probe ticks every sampleEvery cycles (0 =
// default 1024). Event tracing and time-series recording are off until
// EnableTrace / EnableRecording.
func NewHub(sampleEvery uint64) *Hub {
	if sampleEvery == 0 {
		sampleEvery = 1024
	}
	h := &Hub{Reg: NewRegistry(), every: sampleEvery}
	// Probe volume is part of every summary, so a run whose probe never
	// hooked (or whose interval was too coarse) is visible at a glance
	// rather than silently empty.
	h.Reg.CounterFunc("telemetry.sampler.samples", func() uint64 { return uint64(h.ticks) })
	return h
}

// SampleEvery returns the probe interval in cycles (0 for a nil hub).
func (h *Hub) SampleEvery() uint64 {
	if h == nil {
		return 0
	}
	return h.every
}

// Sample is the cycle probe's per-tick entry point: it counts the tick and
// folds it into the time-series recorder when recording is on. The probe
// fires between events and never schedules anything, so sampling cannot
// perturb simulated results.
//
//hwgc:hotpath
func (h *Hub) Sample(cycle uint64) {
	if h == nil {
		return
	}
	h.ticks++
	h.rec.Tick(cycle)
}

// EnableTrace turns on structured event tracing and returns the tracer.
// Runs forked afterwards record traces too.
func (h *Hub) EnableTrace() *Tracer {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.Trace == nil {
		h.Trace = NewTracer()
		// Truncation must be visible in summaries, not just buried in the
		// trace file's otherData: a capped tracer silently dropping spans
		// would otherwise look like a quiet run.
		t := h.Trace
		h.Reg.CounterFunc("telemetry.trace.events", func() uint64 { return uint64(len(t.Events())) })
		h.Reg.CounterFunc("telemetry.trace.dropped", t.Dropped)
	}
	return h.Trace
}

// EnableRecording turns on bounded time-series recording (off by default):
// every probe tick folds into at most maxPoints retained points per metric
// (0 = DefaultRecorderPoints). Runs forked afterwards record too.
// Idempotent.
func (h *Hub) EnableRecording(maxPoints int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rec == nil {
		h.rec = newRecorder(h.Reg, h.every, maxPoints)
	}
}

// ForRun forks the private child hub one simulation run attaches to: its
// own registry, recorder, and tracer, with this hub's probe interval and
// tracing/recording settings. The run's hot paths therefore stay
// unsynchronized no matter how many runs record concurrently. The label
// groups the run in merged output; children sharing a label are numbered
// in fork order. Nil-safe.
func (h *Hub) ForRun(label string) *Hub {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	c := NewHub(h.every)
	if h.Trace != nil {
		c.EnableTrace()
	}
	if h.rec != nil {
		c.EnableRecording(h.rec.maxPoints)
	}
	if h.perLabel == nil {
		h.perLabel = make(map[string]int)
	}
	h.children = append(h.children, child{label: label, seq: h.perLabel[label], hub: c})
	h.perLabel[label]++
	return c
}

// runs snapshots the hub's own surfaces as run "main" (seq -1) followed by
// every forked child ordered by (label, seq) — the canonical order for
// merged output. Within a label, seq follows fork order, which equals
// submission order on a serial run.
func (h *Hub) runs() []child {
	h.mu.Lock()
	out := append([]child{{label: "main", seq: -1, hub: h}}, h.children...)
	h.mu.Unlock()
	forked := out[1:]
	sort.Slice(forked, func(i, j int) bool {
		if forked[i].label != forked[j].label {
			return forked[i].label < forked[j].label
		}
		return forked[i].seq < forked[j].seq
	})
	return out
}

// RecordedSeries returns every run's recorded time series: the hub's own as
// "main", then one entry per forked child, in (label, fork sequence) order.
// Runs and series that recorded nothing are omitted. Call after workers
// join, like Snapshot.
func (h *Hub) RecordedSeries() []RunSeries {
	if h == nil {
		return nil
	}
	var out []RunSeries
	for _, c := range h.runs() {
		if sd := c.hub.rec.Series(); len(sd) > 0 {
			out = append(out, RunSeries{Run: c.name(), Series: sd})
		}
	}
	return out
}

// Snapshot returns a fresh registry folding the hub's own metrics and every
// forked child: counters, rates, and histograms are summed, and
// counter-func/gauge callbacks are evaluated and summed. Summation is
// commutative, so the aggregate does not depend on run completion order —
// a parallel fleet's summary is byte-identical to a serial one. Do not call
// while runs are still recording into children (callers snapshot after
// their workers join). Nil-safe.
func (h *Hub) Snapshot() *Registry {
	if h == nil {
		return nil
	}
	out := NewRegistry()
	for _, c := range h.runs() {
		fold(out, c.hub.Reg)
	}
	return out
}

// fold accumulates src's metrics into dst (see Snapshot for the rules).
func fold(dst, src *Registry) {
	for name, m := range src.metrics {
		switch m.kind {
		case KindCounter:
			dst.Counter(name).Add(m.counter.Value())
		case KindRate:
			dst.Rate(name).Add(m.rate.Value())
		case KindHistogram:
			dst.Histogram(name).Merge(m.hist)
		case KindCounterFunc:
			var v uint64
			if m.cfn != nil {
				v = m.cfn()
			}
			if prev, ok := dst.metrics[name]; ok && prev.cfn != nil {
				v += prev.cfn()
			}
			total := v
			dst.CounterFunc(name, func() uint64 { return total })
		case KindGauge:
			var v float64
			if m.gauge != nil {
				v = m.gauge()
			}
			if prev, ok := dst.metrics[name]; ok && prev.gauge != nil {
				v += prev.gauge()
			}
			total := v
			dst.Gauge(name, func() float64 { return total })
		}
	}
}

// WriteSummary writes the end-of-run metric summary of the aggregate view.
// Nil-safe.
func (h *Hub) WriteSummary(w io.Writer) error { return h.Snapshot().WriteSummary(w) }

// WriteSamplesJSONL writes the recorded time series (RecordedSeries) as one
// JSON object per retained cycle of each run:
//
//	{"run":"xalan/hw#0","cycle":2048,"metrics":{"dram.busy":0.5,...}}
//
// Every metric the recorder keeps appears — gauges as window means,
// counters and rates as per-cycle rates — so the output is bounded by the
// recorder's point budget, however long the run. Series share their run's
// retention stride, so a row carries every metric with a point at that
// cycle; a metric registered mid-run joins later rows. Keys are sorted and
// floats formatted deterministically. Runs come in RecordedSeries order: at
// fleet width 1 that order is canonical; at higher widths runs sharing a
// label may permute (their contents stay deterministic).
func (h *Hub) WriteSamplesJSONL(w io.Writer) error {
	for _, run := range h.RecordedSeries() {
		if err := writeRunJSONL(w, run); err != nil {
			return err
		}
	}
	return nil
}

// writeRunJSONL merges one run's per-metric series into cycle-ordered rows.
func writeRunJSONL(w io.Writer, run RunSeries) error {
	pos := make([]int, len(run.Series)) // next unwritten point per series
	head := `{"run":` + strconv.Quote(run.Run) + `,"cycle":`
	var b []byte
	for {
		cycle, found := uint64(0), false
		for i, s := range run.Series {
			if p := pos[i]; p < len(s.Points) && (!found || s.Points[p].Cycle < cycle) {
				cycle, found = s.Points[p].Cycle, true
			}
		}
		if !found {
			return nil
		}
		b = append(b[:0], head...)
		b = strconv.AppendUint(b, cycle, 10)
		b = append(b, `,"metrics":{`...)
		first := true
		for i, s := range run.Series {
			if p := pos[i]; p < len(s.Points) && s.Points[p].Cycle == cycle {
				if !first {
					b = append(b, ',')
				}
				first = false
				b = strconv.AppendQuote(b, s.Name)
				b = append(b, ':')
				b = append(b, fnum(s.Points[p].Val)...)
				pos[i]++
			}
		}
		b = append(b, "}}\n"...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
}

// WriteTraceChrome writes the recorded trace events in Chrome trace_event
// format, each run as its own process (pid) named after the run: the hub's
// own events as "main" (when it has any), then every child in (label, fork
// sequence) order. Nil-safe.
func (h *Hub) WriteTraceChrome(w io.Writer) error {
	if h == nil {
		return nil
	}
	var parts []tracePart
	for i, c := range h.runs() {
		// "main" only when it traced anything; children always.
		if c.hub.Trace != nil && (i > 0 || len(c.hub.Trace.Events()) > 0) {
			parts = append(parts, tracePart{name: c.name(), t: c.hub.Trace})
		}
	}
	return writeChromeParts(w, parts)
}

// TraceEventCount returns the total number of recorded trace events across
// the hub and all forked children.
func (h *Hub) TraceEventCount() int {
	if h == nil {
		return 0
	}
	n := 0
	for _, c := range h.runs() {
		n += len(c.hub.Trace.Events())
	}
	return n
}

// Tracer returns the hub's event tracer (nil when the hub is nil or tracing
// is disabled) — safe to call on a nil hub, so units can attach with
// h.Tracer() unconditionally.
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.Trace
}

// Registry returns the hub's registry (nil when the hub is nil).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Reg
}
