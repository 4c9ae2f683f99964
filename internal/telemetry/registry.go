package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Kind classifies a registered metric.
type Kind uint8

const (
	// KindCounter is an owned monotonic counter (summary only).
	KindCounter Kind = iota
	// KindCounterFunc mirrors an existing unit counter field via a
	// callback (summary only).
	KindCounterFunc
	// KindGauge is an instantaneous value callback, sampled by the cycle
	// recorder into a time series.
	KindGauge
	// KindHistogram is a distribution (summary: count/mean/quantiles/max).
	KindHistogram
	// KindRate is a counter whose per-interval delta is sampled as a
	// time-resolved rate.
	KindRate
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindCounterFunc:
		return "counterfunc"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindRate:
		return "rate"
	}
	return "unknown"
}

type metric struct {
	kind    Kind
	counter *Counter
	cfn     func() uint64
	gauge   func() float64
	hist    *Histogram
	rate    *Rate
}

// Registry is the hierarchical metrics registry. Units register metrics
// under stable dotted names ("tracer.markqueue.occupancy",
// "dram.bank3.rowconflicts", "tilelink.grants"); the hierarchy is the name,
// there is no tree structure to maintain.
//
// Registering two metrics of different kinds under one name panics —
// that is a wiring bug. Re-registering the same kind is allowed:
// Counter/Histogram/Rate return the existing instance (so sequential
// systems in one experiment share totals) and Gauge/CounterFunc replace
// the callback (so the most recently attached system is the one sampled).
//
// A nil *Registry is valid: every method returns a nil (no-op) metric, so
// unattached units pay nothing.
//
// The registry is not goroutine-safe; the simulator is single-threaded.
type Registry struct {
	metrics map[string]*metric
	gen     int // bumped on every new registration (recorder cache key)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookup(name string, kind Kind) *metric {
	m, ok := r.metrics[name]
	if !ok {
		m = &metric{kind: kind}
		r.metrics[name] = m
		r.gen++
		return m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as %s, cannot re-register as %s",
			name, m.kind, kind))
	}
	return m
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, KindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// CounterFunc registers a callback mirroring an existing unit counter field
// (avoids touching hot paths that already keep a uint64). Replaces any
// previous callback under the same name.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.lookup(name, KindCounterFunc).cfn = fn
}

// Gauge registers an instantaneous-value callback. Gauges are what the
// cycle recorder snapshots into time series. Replaces any previous callback
// under the same name.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, KindGauge).gauge = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, KindHistogram)
	if m.hist == nil {
		m.hist = &Histogram{}
	}
	return m.hist
}

// Rate returns the rate registered under name, creating it on first use.
func (r *Registry) Rate(name string) *Rate {
	if r == nil {
		return nil
	}
	m := r.lookup(name, KindRate)
	if m.rate == nil {
		m.rate = &Rate{}
	}
	return m.rate
}

// Sub returns a scope that prefixes every registration with prefix + ".".
func (r *Registry) Sub(prefix string) *Scope {
	return &Scope{r: r, prefix: prefix + "."}
}

// Names returns all registered names in sorted order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// KindOf returns the kind of the named metric.
func (r *Registry) KindOf(name string) (Kind, bool) {
	if r == nil {
		return 0, false
	}
	m, ok := r.metrics[name]
	if !ok {
		return 0, false
	}
	return m.kind, true
}

// Value returns the current scalar value of the named metric: count for
// counters and rates, the callback result for gauges and counter funcs, and
// the observation count for histograms.
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	m, ok := r.metrics[name]
	if !ok {
		return 0, false
	}
	return m.value(), true
}

func (m *metric) value() float64 {
	switch m.kind {
	case KindCounter:
		return float64(m.counter.Value())
	case KindCounterFunc:
		if m.cfn == nil {
			return 0
		}
		return float64(m.cfn())
	case KindGauge:
		if m.gauge == nil {
			return 0
		}
		return m.gauge()
	case KindHistogram:
		return float64(m.hist.Count())
	case KindRate:
		return float64(m.rate.Value())
	}
	return 0
}

// WriteSummary prints a deterministic end-of-run text table: one line per
// metric in name order, histograms expanded to count/mean/p50/p90/p99/max.
func (r *Registry) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	width := 0
	names := r.Names()
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		m := r.metrics[n]
		var err error
		switch m.kind {
		case KindHistogram:
			h := m.hist
			_, err = fmt.Fprintf(w, "%-*s  n=%d mean=%s p50=%s p90=%s p99=%s max=%d\n",
				width, n, h.Count(), fnum(h.Mean()), fnum(h.Quantile(0.5)),
				fnum(h.Quantile(0.9)), fnum(h.Quantile(0.99)), h.Max())
		default:
			_, err = fmt.Fprintf(w, "%-*s  %s\n", width, n, fnum(m.value()))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the final value of every metric as one JSON object with
// sorted keys (deterministic byte-for-byte).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, n := range r.Names() {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s%s:%s", sep, strconv.Quote(n), fnum(r.metrics[n].value())); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// fnum formats a float deterministically and without a trailing ".0" for
// integral values.
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Scope prefixes registrations into a parent registry; it supports the same
// constructors as Registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Counter registers prefix+name.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.r.Counter(s.prefix + name)
}

// CounterFunc registers prefix+name.
func (s *Scope) CounterFunc(name string, fn func() uint64) {
	if s == nil {
		return
	}
	s.r.CounterFunc(s.prefix+name, fn)
}

// Gauge registers prefix+name.
func (s *Scope) Gauge(name string, fn func() float64) {
	if s == nil {
		return
	}
	s.r.Gauge(s.prefix+name, fn)
}

// Histogram registers prefix+name.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.r.Histogram(s.prefix + name)
}

// Rate registers prefix+name.
func (s *Scope) Rate(name string) *Rate {
	if s == nil {
		return nil
	}
	return s.r.Rate(s.prefix + name)
}

// Sub nests a further prefix.
func (s *Scope) Sub(prefix string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{r: s.r, prefix: s.prefix + prefix + "."}
}
