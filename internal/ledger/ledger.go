// Package ledger gives every hwgc run a durable, machine-readable record.
// Each invocation of hwgc-bench, hwgc-sim, or a hwgc-serve job appends a
// run manifest — what was run, at what scale, from which module version,
// with which result-cache cell keys, and what the headline metrics came out
// to — to an append-only directory store. The manifests are the substrate
// for the regression sentinel (sentinel.go, cmd/hwgc-report): they let "did
// this PR bend a paper ratio?" be answered by diffing two JSON files
// instead of re-reading EXPERIMENTS.md by hand.
package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

// SchemaVersion identifies the manifest layout. Bump when a field changes
// meaning so old manifests are never misread.
const SchemaVersion = "hwgc-manifest-v1"

// Host records where and how expensively the run executed. Wall time and
// allocation counters are host-side (Go runtime) measures, not simulated
// cycles.
type Host struct {
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	CPUs       int     `json:"cpus"`
	GoVersion  string  `json:"goVersion"`
	WallMS     float64 `json:"wallMs"`
	AllocBytes uint64  `json:"allocBytes,omitempty"`
	Mallocs    uint64  `json:"mallocs,omitempty"`
}

// Scale records the experiment options that determine results.
type Scale struct {
	GCs    int    `json:"gcs"`
	Seed   uint64 `json:"seed"`
	Quick  bool   `json:"quick"`
	Shrink int    `json:"shrink,omitempty"`
}

// Experiment is one runner's outcome within a run.
type Experiment struct {
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	// CellKey is the content-addressed result-cache key for this cell
	// (resultcache.CellKey), tying the manifest row to the cached payload.
	CellKey  string `json:"cellKey,omitempty"`
	CacheHit bool   `json:"cacheHit,omitempty"`
	// Worker names the cluster worker whose result this row records; empty
	// for local runs and cache hits. Attribution only — two manifests that
	// differ solely in Worker describe the same (byte-identical) results.
	Worker string `json:"worker,omitempty"`
	// Attempts counts dispatcher lease grants (0 for local runs); Retries
	// counts re-queues. Like Worker, pure attribution.
	Attempts int `json:"attempts,omitempty"`
	Retries  int `json:"retries,omitempty"`
	// TraceID and Spans embed the cell's distributed trace when the
	// dispatching coordinator recorded one: the job's full wall-clock span
	// tree (queue wait, attempts, backoff, worker execution). Wall-clock
	// observability only — never part of the result's identity.
	TraceID string           `json:"traceId,omitempty"`
	Spans   []telemetry.Span `json:"spans,omitempty"`
	Error   string           `json:"error,omitempty"`
	WallMS  float64          `json:"wallMs"`
	// Metrics are the runner's stable machine-readable headline numbers
	// (experiments.Report.Metrics) — what the sentinel checks against the
	// EXPERIMENTS.md tolerance bands.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Manifest is one run's durable record.
type Manifest struct {
	SchemaVersion string       `json:"schemaVersion"`
	Tool          string       `json:"tool"` // "hwgc-bench", "hwgc-sim", "hwgc-serve"
	CreatedAt     time.Time    `json:"createdAt"`
	ModuleVersion string       `json:"moduleVersion"`
	Scale         Scale        `json:"scale"`
	Host          Host         `json:"host"`
	Experiments   []Experiment `json:"experiments"`
	// Telemetry is a flattened snapshot of the run's metrics registry
	// (counter/gauge values, histogram quantiles) taken at the end of the
	// run, when telemetry was enabled.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
	// Timeseries holds the run's bounded per-metric time series, when
	// recording was enabled (hwgc-bench/-sim -timeseries or -report).
	Timeseries *Timeseries `json:"timeseries,omitempty"`
}

// TimeseriesSchemaVersion identifies the timeseries section layout; it is
// versioned independently of the manifest so the report renderer can refuse
// series it does not understand without invalidating the whole manifest.
const TimeseriesSchemaVersion = "hwgc-timeseries-v1"

// Timeseries is a manifest's recorded time-series section: every run's
// bounded per-metric (cycle, value) curves from the telemetry recorder.
type Timeseries struct {
	SchemaVersion string `json:"schemaVersion"`
	// SampleEvery is the probe interval in cycles the recorder ticked at.
	SampleEvery uint64      `json:"sampleEvery,omitempty"`
	Runs        []RunSeries `json:"runs"`
}

// RunSeries is one run's recorded series. Run is the run's merged-output
// name ("main" or "bench/side#seq"; empty in older single-run manifests).
type RunSeries struct {
	Run    string   `json:"run,omitempty"`
	Series []Series `json:"series"`
}

// Series is one metric's curve. Cycles and Values are parallel arrays
// (directly plottable). Interval is the retention stride in cycles: the
// width of the window each point summarizes.
//
// On the wire the arrays are space-separated numeric strings rather than
// JSON arrays: manifests are written indented, and a JSON array costs one
// line per sample — a fleet run's million-plus points would bloat the file
// ~8x. Values use shortest-roundtrip formatting, so decoding reproduces the
// recorded float64s exactly.
type Series struct {
	Name     string    `json:"-"`
	Interval uint64    `json:"-"`
	Cycles   []uint64  `json:"-"`
	Values   []float64 `json:"-"`
}

// seriesJSON is the wire form of Series.
type seriesJSON struct {
	Name     string `json:"name"`
	Interval uint64 `json:"interval"`
	Cycles   string `json:"cycles"`
	Values   string `json:"values"`
}

// MarshalJSON encodes the parallel arrays as compact strings.
func (s Series) MarshalJSON() ([]byte, error) {
	var cb, vb strings.Builder
	for i, c := range s.Cycles {
		if i > 0 {
			cb.WriteByte(' ')
		}
		cb.WriteString(strconv.FormatUint(c, 10))
	}
	for i, v := range s.Values {
		if i > 0 {
			vb.WriteByte(' ')
		}
		vb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return json.Marshal(seriesJSON{Name: s.Name, Interval: s.Interval,
		Cycles: cb.String(), Values: vb.String()})
}

// UnmarshalJSON decodes the wire form back into parallel arrays. A cycle
// and value count mismatch is a hard error — a torn series must not plot.
func (s *Series) UnmarshalJSON(data []byte) error {
	var w seriesJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	s.Name, s.Interval = w.Name, w.Interval
	s.Cycles, s.Values = nil, nil
	for _, f := range strings.Fields(w.Cycles) {
		c, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return fmt.Errorf("ledger: series %q: bad cycle %q: %w", w.Name, f, err)
		}
		s.Cycles = append(s.Cycles, c)
	}
	for _, f := range strings.Fields(w.Values) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("ledger: series %q: bad value %q: %w", w.Name, f, err)
		}
		s.Values = append(s.Values, v)
	}
	if len(s.Cycles) != len(s.Values) {
		return fmt.Errorf("ledger: series %q: %d cycles but %d values", w.Name, len(s.Cycles), len(s.Values))
	}
	return nil
}

// Metrics returns the manifest's experiment metrics keyed
// "experiment/metric", for flat comparison.
func (m *Manifest) Metrics() map[string]float64 {
	out := make(map[string]float64)
	for _, e := range m.Experiments {
		for name, v := range e.Metrics {
			out[e.ID+"/"+name] = v
		}
	}
	return out
}

// Experiment returns the record with the given ID, if present.
func (m *Manifest) Experiment(id string) (Experiment, bool) {
	for _, e := range m.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// NewManifest returns a manifest stamped with the running module's identity.
func NewManifest(tool string, sc Scale) *Manifest {
	return &Manifest{
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		CreatedAt:     time.Now().UTC(),
		ModuleVersion: resultcache.ModuleVersion(),
		Scale:         sc,
		Host: Host{
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			GoVersion: runtime.Version(),
		},
	}
}

// SnapshotTelemetry flattens a hub's registry snapshot into the manifest.
// Counters, counter funcs, gauges, and rates store their value; histograms
// store count, mean, and the p50/p90/p99 quantiles under suffixed names.
func (m *Manifest) SnapshotTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	reg := h.Snapshot()
	out := make(map[string]float64)
	for _, name := range reg.Names() {
		kind, ok := reg.KindOf(name)
		if !ok {
			continue
		}
		if kind == telemetry.KindHistogram {
			// Histogram re-registration under the same kind returns the
			// existing instance, so this is a read, not a reset.
			hist := reg.Histogram(name)
			out[name+".count"] = float64(hist.Count())
			out[name+".mean"] = hist.Mean()
			out[name+".p50"] = hist.Quantile(0.5)
			out[name+".p99"] = hist.Quantile(0.99)
			continue
		}
		if v, ok := reg.Value(name); ok {
			out[name] = v
		}
	}
	if len(out) > 0 {
		m.Telemetry = out
	}
}

// SnapshotTimeseries copies a hub's recorded time series into the manifest.
// A hub that never enabled recording (or recorded nothing) leaves the
// manifest unchanged. Call after workers join, like SnapshotTelemetry.
func (m *Manifest) SnapshotTimeseries(h *telemetry.Hub) {
	if h == nil {
		return
	}
	runs := h.RecordedSeries()
	if len(runs) == 0 {
		return
	}
	ts := &Timeseries{SchemaVersion: TimeseriesSchemaVersion, SampleEvery: h.SampleEvery()}
	for _, r := range runs {
		rs := RunSeries{Run: r.Run, Series: make([]Series, 0, len(r.Series))}
		for _, sd := range r.Series {
			// All-zero series (idle units, counters that never fired) carry
			// nothing a chart can show; dropping them roughly halves a fleet
			// manifest.
			flat := true
			for _, p := range sd.Points {
				if p.Val != 0 {
					flat = false
					break
				}
			}
			if flat {
				continue
			}
			s := Series{
				Name:     sd.Name,
				Interval: sd.Interval,
				Cycles:   make([]uint64, len(sd.Points)),
				Values:   make([]float64, len(sd.Points)),
			}
			for i, p := range sd.Points {
				s.Cycles[i] = p.Cycle
				s.Values[i] = p.Val
			}
			rs.Series = append(rs.Series, s)
		}
		if len(rs.Series) > 0 {
			ts.Runs = append(ts.Runs, rs)
		}
	}
	if len(ts.Runs) == 0 {
		return
	}
	m.Timeseries = ts
}

// WriteManifest atomically writes the manifest as indented JSON.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(path, append(data, '\n'))
}

// ReadManifest reads a manifest written by WriteManifest.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	return &m, nil
}

// Store is an append-only directory of run manifests: one JSON file per
// run plus an index.jsonl with one summary line per run, newest last.
type Store struct {
	Dir string
}

// Open ensures the ledger directory exists.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{Dir: dir}, nil
}

// indexEntry is one line of index.jsonl.
type indexEntry struct {
	File      string    `json:"file"`
	Tool      string    `json:"tool"`
	CreatedAt time.Time `json:"createdAt"`
	Quick     bool      `json:"quick"`
	Runs      int       `json:"runs"`
}

// Append writes the manifest into the store and records it in the index.
// It returns the manifest file's path.
func (s *Store) Append(m *Manifest) (string, error) {
	name := fmt.Sprintf("run-%s-%09d-%s.json",
		m.CreatedAt.Format("20060102-150405"), m.CreatedAt.Nanosecond(), m.Tool)
	path := filepath.Join(s.Dir, name)
	if err := WriteManifest(path, m); err != nil {
		return "", err
	}
	line, err := json.Marshal(indexEntry{
		File: name, Tool: m.Tool, CreatedAt: m.CreatedAt,
		Quick: m.Scale.Quick, Runs: len(m.Experiments),
	})
	if err != nil {
		return "", err
	}
	f, err := os.OpenFile(filepath.Join(s.Dir, "index.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return "", err
	}
	return path, nil
}

// List returns the store's manifest file paths, oldest first.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "run-") ||
			!strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		out = append(out, filepath.Join(s.Dir, e.Name()))
	}
	sort.Strings(out) // names embed a fixed-width UTC timestamp
	return out, nil
}

// Latest reads the newest manifest, or nil when the store is empty.
func (s *Store) Latest() (*Manifest, string, error) {
	paths, err := s.List()
	if err != nil || len(paths) == 0 {
		return nil, "", err
	}
	p := paths[len(paths)-1]
	m, err := ReadManifest(p)
	return m, p, err
}

// atomicWrite writes data to path via a temp file + rename so readers never
// observe a torn manifest.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".ledger-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
