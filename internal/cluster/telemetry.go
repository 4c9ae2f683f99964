package cluster

// Coordinator observability: aggregate metrics on the telemetry hub, a
// JSON status snapshot for GET /cluster/v1/status, and per-worker
// Prometheus series.
//
// Aggregate counters register on the hub registry at construction time
// (fixed names, safe). Per-worker series cannot: workers appear and
// disappear at runtime, and the registry is deliberately not
// goroutine-safe — registering on heartbeat would race with a concurrent
// /metrics snapshot. They are instead rendered directly by WritePrometheus
// under the coordinator lock, as labeled families appended after the
// registry dump.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"hwgc/internal/telemetry"
)

// counterCatalogue is the coordinator's one list of aggregate counters:
// each one's registry and Prometheus name, its Status field (nil when the
// counter is registry-only), and the transition kinds it sums. Two keys
// refine a kind without a flight record of their own: "affinity.local"
// (a grant of a job whose images the worker already owns) and
// "commit.cachehit" (a commit served from the worker's local cache).
var counterCatalogue = []struct {
	metric string
	field  func(*Status) *uint64
	kinds  []string
}{
	{"cluster.jobs.submitted", func(s *Status) *uint64 { return &s.Submitted }, []string{"submit"}},
	{"cluster.jobs.completed", func(s *Status) *uint64 { return &s.Completed }, []string{"commit", "cache.hit"}},
	{"cluster.jobs.failed", func(s *Status) *uint64 { return &s.Failed }, []string{"fail"}},
	{"cluster.jobs.cancelled", func(s *Status) *uint64 { return &s.Cancelled }, []string{"cancel"}},
	{"cluster.jobs.cachehits", func(s *Status) *uint64 { return &s.CacheHits }, []string{"cache.hit", "commit.cachehit"}},
	{"cluster.jobs.retries", func(s *Status) *uint64 { return &s.Retries }, []string{"backoff"}},
	{"cluster.jobs.duplicatedrops", func(s *Status) *uint64 { return &s.DuplicateDrop }, []string{"duplicate.drop"}},
	{"cluster.leases.granted", func(s *Status) *uint64 { return &s.LeasesGranted }, []string{"lease.grant"}},
	{"cluster.leases.expired", func(s *Status) *uint64 { return &s.LeasesExpired }, []string{"lease.expire"}},
	{"cluster.affinity.local", func(s *Status) *uint64 { return &s.AffinityLocal }, []string{"affinity.local"}},
	{"cluster.affinity.steals", func(s *Status) *uint64 { return &s.AffinitySteal }, []string{"steal"}},
	{"cluster.workers.registered", nil, []string{"worker.register"}},
	{"cluster.workers.expired", nil, []string{"worker.expire"}},
}

// countLocked sums the transitions of the given kinds. Caller holds c.mu.
func (c *Coordinator) countLocked(kinds []string) uint64 {
	var n uint64
	for _, k := range kinds {
		n += c.counts[k]
	}
	return n
}

// attachTelemetry registers the coordinator's aggregate metrics and its
// result cache's counters. All reads take a lock (c.mu or the cache's), so
// they are safe from any goroutine.
func (c *Coordinator) attachTelemetry(h *telemetry.Hub) {
	reg := h.Registry()
	if reg == nil {
		return
	}
	locked := func(f func() uint64) func() uint64 {
		return func() uint64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		}
	}
	gauge := func(f func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		}
	}
	for _, e := range counterCatalogue {
		reg.CounterFunc(e.metric, locked(func() uint64 { return c.countLocked(e.kinds) }))
	}
	reg.Gauge("cluster.jobs.pending", gauge(func() float64 { return float64(len(c.pending)) }))
	reg.Gauge("cluster.leases.active", gauge(func() float64 { return float64(len(c.leases)) }))
	reg.Gauge("cluster.workers.connected", gauge(func() float64 { return float64(len(c.workers)) }))
	reg.Gauge("cluster.jobs.inflight_cycles", gauge(func() float64 {
		var sum uint64
		for _, l := range c.leases {
			sum += l.job.beat.Cycles()
		}
		return float64(sum)
	}))
	// The latency histogram is guarded by c.mu (registry histograms are not
	// lock-free), so it is published as locked reads rather than as a raw
	// registry histogram.
	reg.CounterFunc("cluster.job.latency.count", locked(func() uint64 { return c.latency.Count() }))
	reg.Gauge("cluster.job.latency.mean_us", gauge(func() float64 { return c.latency.Mean() }))
	reg.Gauge("cluster.job.latency.max_us", gauge(func() float64 { return float64(c.latency.Max()) }))
	reg.Gauge("cluster.job.latency.p50_us", gauge(func() float64 { return c.latency.Quantile(0.50) }))
	reg.Gauge("cluster.job.latency.p99_us", gauge(func() float64 { return c.latency.Quantile(0.99) }))
	if c.cfg.Cache != nil {
		c.cfg.Cache.AttachTelemetry(h)
	}
}

// WorkerStatus is one registered worker in a Status snapshot.
type WorkerStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Slots int    `json:"slots"`
	// Leases is how many leases the worker currently holds.
	Leases int `json:"leases"`
	// LastSeenMS is milliseconds since the worker's last heartbeat or poll.
	LastSeenMS int64 `json:"lastSeenMs"`
	// Completed/Failed/Expired/Stolen attribute lease outcomes to the
	// worker (Stolen counts leases it took against another worker's
	// affinity claim).
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Expired   uint64 `json:"expired"`
	Stolen    uint64 `json:"stolen"`
}

// Status is a point-in-time coordinator snapshot (GET /cluster/v1/status).
type Status struct {
	Protocol string `json:"protocol"`
	Draining bool   `json:"draining"`

	Pending      int `json:"pending"`
	ActiveLeases int `json:"activeLeases"`

	Submitted     uint64 `json:"submitted"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Cancelled     uint64 `json:"cancelled"`
	CacheHits     uint64 `json:"cacheHits"`
	Retries       uint64 `json:"retries"`
	DuplicateDrop uint64 `json:"duplicateDrops"`
	LeasesGranted uint64 `json:"leasesGranted"`
	LeasesExpired uint64 `json:"leasesExpired"`
	AffinityLocal uint64 `json:"affinityLocal"`
	AffinitySteal uint64 `json:"affinitySteals"`

	Workers []WorkerStatus `json:"workers"`

	// Trace introspection: whether span recording is on, how much the span
	// recorder and flight ring currently hold, and how much each dropped.
	TraceEnabled  bool   `json:"traceEnabled"`
	Spans         int    `json:"spans"`
	SpansDropped  uint64 `json:"spansDropped"`
	FlightEvents  int    `json:"flightEvents"`
	FlightDropped uint64 `json:"flightDropped"`
}

// Status snapshots the coordinator. Workers are sorted by name for stable
// output.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := Status{
		Protocol:     ProtocolVersion,
		Draining:     c.draining,
		Pending:      len(c.pending),
		ActiveLeases: len(c.leases),
		Workers:      make([]WorkerStatus, 0, len(c.workers)),
	}
	for _, e := range counterCatalogue {
		if e.field != nil {
			*e.field(&st) = c.countLocked(e.kinds)
		}
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			ID:         w.id,
			Name:       w.name,
			Slots:      w.slots,
			Leases:     len(w.leases),
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
			Completed:  w.completed,
			Failed:     w.failed,
			Expired:    w.expired,
			Stolen:     w.stolen,
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	// The recorders have their own locks and never take c.mu, so reading
	// them under it cannot deadlock.
	st.TraceEnabled = c.cfg.Spans != nil
	st.Spans = c.cfg.Spans.Len()
	st.SpansDropped = c.cfg.Spans.Dropped()
	st.FlightEvents = c.flight.Len()
	st.FlightDropped = c.flight.Dropped()
	return st
}

// perWorkerFamilies is the labeled-series catalog WritePrometheus emits.
var perWorkerFamilies = []struct {
	name, typ string
	value     func(WorkerStatus) float64
}{
	{"cluster.worker.completed", "counter", func(w WorkerStatus) float64 { return float64(w.Completed) }},
	{"cluster.worker.failed", "counter", func(w WorkerStatus) float64 { return float64(w.Failed) }},
	{"cluster.worker.leases.expired", "counter", func(w WorkerStatus) float64 { return float64(w.Expired) }},
	{"cluster.worker.leases.stolen", "counter", func(w WorkerStatus) float64 { return float64(w.Stolen) }},
	{"cluster.worker.leases.held", "gauge", func(w WorkerStatus) float64 { return float64(w.Leases) }},
}

// WritePrometheus renders per-worker series in the Prometheus text
// exposition format, one labeled sample per registered worker:
//
//	hwgc_cluster_worker_completed{worker="lab-2"} 13
//
// Output is deterministic (families in catalog order, workers sorted by
// name). The service appends it after the registry exposition on
// GET /metrics.
func (c *Coordinator) WritePrometheus(w io.Writer) error {
	return c.writeWorkerFamilies(w, c.Status())
}

func (c *Coordinator) writeWorkerFamilies(w io.Writer, st Status) error {
	for _, fam := range perWorkerFamilies {
		pn := telemetry.PrometheusName(fam.name)
		if _, err := fmt.Fprintf(w, "# HELP %s per-worker cluster metric %s\n# TYPE %s %s\n",
			pn, fam.name, pn, fam.typ); err != nil {
			return err
		}
		for _, ws := range st.Workers {
			if _, err := fmt.Fprintf(w, "%s{worker=%q} %s\n",
				pn, ws.Name, strconv.FormatFloat(fam.value(ws), 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteClusterPrometheus renders the federated cluster-wide exposition for
// GET /cluster/v1/metrics: the coordinator aggregates (self-contained — no
// telemetry hub required), fleet-wide sums of the per-worker attribution
// counters, and the per-worker labeled series. Output is deterministic.
func (c *Coordinator) WriteClusterPrometheus(w io.Writer) error {
	st := c.Status()
	var err error
	put := func(name, typ string, v float64) {
		if err == nil {
			pn := telemetry.PrometheusName(name)
			_, err = fmt.Fprintf(w, "# HELP %s cluster-wide metric %s\n# TYPE %s %s\n%s %s\n",
				pn, name, pn, typ, pn, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	for _, e := range counterCatalogue {
		if e.field != nil {
			put(e.metric, "counter", float64(*e.field(&st)))
		}
	}
	put("cluster.jobs.pending", "gauge", float64(st.Pending))
	put("cluster.leases.active", "gauge", float64(st.ActiveLeases))
	put("cluster.workers.connected", "gauge", float64(len(st.Workers)))
	// Fleet-wide sums of the per-worker families.
	for _, fam := range perWorkerFamilies {
		sum := 0.0
		for _, ws := range st.Workers {
			sum += fam.value(ws)
		}
		put(strings.Replace(fam.name, ".worker.", ".fleet.", 1), fam.typ, sum)
	}
	put("cluster.trace.spans", "gauge", float64(st.Spans))
	put("cluster.trace.spans.dropped", "counter", float64(st.SpansDropped))
	put("cluster.flight.events", "gauge", float64(st.FlightEvents))
	put("cluster.flight.events.dropped", "counter", float64(st.FlightDropped))
	if err != nil {
		return err
	}
	return c.writeWorkerFamilies(w, st)
}

// TraceExport is the flight-recorder + span dump served by
// GET /cluster/v1/trace: everything needed to reconstruct job waterfalls
// offline (hwgc-report renders it into the fleet view).
type TraceExport struct {
	Protocol string `json:"protocol"`
	// Enabled reports whether span recording is on (the flight events are
	// always recorded).
	Enabled bool `json:"enabled"`
	// Spans is the wall-span buffer in insertion order; SpansDropped counts
	// spans discarded after it filled.
	Spans        []telemetry.Span `json:"spans"`
	SpansDropped uint64           `json:"spansDropped"`
	// Events is the flight-recorder ring oldest-first; EventsDropped counts
	// overwritten events (consumers can also detect gaps via Seq).
	Events        []FlightEvent `json:"events"`
	EventsDropped uint64        `json:"eventsDropped"`
}

// TraceExport snapshots the coordinator's trace state.
func (c *Coordinator) TraceExport() TraceExport {
	return TraceExport{
		Protocol:      ProtocolVersion,
		Enabled:       c.cfg.Spans != nil,
		Spans:         c.cfg.Spans.Snapshot(),
		SpansDropped:  c.cfg.Spans.Dropped(),
		Events:        c.flight.Events(),
		EventsDropped: c.flight.Dropped(),
	}
}
