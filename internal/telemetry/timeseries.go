package telemetry

import "sort"

// The time-series recorder is the hub's per-tick store: a bounded,
// auto-downsampling series per metric. It keeps at most maxPoints (cycle,
// value) points per metric. When a series fills, adjacent points are merged
// in place — halving resolution and doubling the retention stride — so a
// run of any length fits a fixed memory budget and the retained curve
// always spans the whole run. Everything is keyed to the simulation cycle,
// so two identical runs record byte-identical series.
//
// Gauges are recorded as window means; counters, counter funcs, and rates
// as per-cycle rates, which is how counters that units already keep as
// plain fields (TLB misses, page walks) become timelines without touching
// their hot paths.
//
// Recording is off by default; Hub.EnableRecording turns it on.

// Point is one retained sample: the cycle the retention window ended at and
// the window's value (mean for gauges, per-cycle rate for counter kinds).
type Point struct {
	Cycle uint64
	Val   float64
}

// SeriesData is one metric's recorded time series.
type SeriesData struct {
	Name string
	// Interval is the retention stride in cycles after downsampling: points
	// are Interval cycles apart (late-registered metrics may begin
	// mid-run, but share the stride).
	Interval uint64
	Points   []Point
}

// DefaultRecorderPoints bounds each recorded series when EnableRecording is
// called with maxPoints <= 0. At 16 bytes per point this is 8 KiB per
// metric.
const DefaultRecorderPoints = 512

// Recorder is the bounded time-series store. It is driven by the owning
// hub's probe ticks; a nil *Recorder records nothing.
type Recorder struct {
	reg       *Registry
	every     uint64 // cycles between ticks (the hub's probe interval)
	maxPoints int

	// Metric cache, rebuilt when the registry's generation changes
	// (Tick is on the probe path — resolving names each tick would
	// allocate).
	gen     int
	names   []string
	ms      []*metric
	kinds   []Kind
	lastCum []float64 // previous cumulative value for counter-like kinds

	stride int // ticks merged into one retained point (doubles on overflow)
	tick   int // ticks accumulated into the current window
	bufs   []recBuf
}

// recBuf accumulates one metric's current window and holds its retained
// points. pts is preallocated at maxPoints capacity, so the tick path never
// allocates.
type recBuf struct {
	pts []Point
	acc float64
	n   int // ticks folded into acc (late joiners see fewer)
}

// newRecorder returns a recorder over reg ticked every `every` cycles.
func newRecorder(reg *Registry, every uint64, maxPoints int) *Recorder {
	if maxPoints <= 0 {
		maxPoints = DefaultRecorderPoints
	}
	if maxPoints < 16 {
		maxPoints = 16
	}
	if maxPoints%2 != 0 {
		maxPoints++
	}
	return &Recorder{reg: reg, every: every, maxPoints: maxPoints, stride: 1}
}

// MaxPoints returns the per-series point bound.
func (r *Recorder) MaxPoints() int {
	if r == nil {
		return 0
	}
	return r.maxPoints
}

// Interval returns the current retention stride in cycles (grows as the
// recorder downsamples).
func (r *Recorder) Interval() uint64 {
	if r == nil {
		return 0
	}
	return r.every * uint64(r.stride)
}

// refresh rebuilds the metric cache after new registrations. Cumulative
// baselines carry over by name so a refresh never fabricates a delta spike;
// new counter-like metrics baseline at their current value.
func (r *Recorder) refresh() {
	if r.bufs != nil && r.gen == r.reg.gen {
		return
	}
	prevCum := make(map[string]float64, len(r.names))
	prevBuf := make(map[string]recBuf, len(r.names))
	for i, n := range r.names {
		prevCum[n] = r.lastCum[i]
		prevBuf[n] = r.bufs[i]
	}
	r.gen = r.reg.gen
	r.names = r.names[:0:0]
	r.ms = r.ms[:0:0]
	r.kinds = r.kinds[:0:0]
	r.lastCum = r.lastCum[:0:0]
	r.bufs = r.bufs[:0:0]
	for _, n := range r.reg.Names() {
		m := r.reg.metrics[n]
		if m.kind == KindHistogram {
			continue
		}
		r.names = append(r.names, n)
		r.ms = append(r.ms, m)
		r.kinds = append(r.kinds, m.kind)
		buf, seen := prevBuf[n]
		if !seen {
			buf = recBuf{pts: make([]Point, 0, r.maxPoints)}
		}
		r.bufs = append(r.bufs, buf)
		cum := prevCum[n]
		if !seen && m.kind != KindGauge {
			cum = m.value() // baseline, so the first window reports 0 delta
		}
		r.lastCum = append(r.lastCum, cum)
	}
	if r.bufs == nil {
		r.bufs = []recBuf{}
	}
}

// Tick folds one probe sample at the given cycle into every series. The hot
// path allocates nothing: accumulation is arithmetic, emission appends
// within preallocated capacity, and downsampling merges in place.
//
//hwgc:hotpath
func (r *Recorder) Tick(cycle uint64) {
	if r == nil || r.reg == nil {
		return
	}
	r.refresh()
	for i, m := range r.ms {
		b := &r.bufs[i]
		switch r.kinds[i] {
		case KindGauge:
			if m.gauge != nil {
				b.acc += m.gauge()
			}
		default: // counter, counter func, rate: accumulate the delta
			v := m.value()
			b.acc += v - r.lastCum[i]
			r.lastCum[i] = v
		}
		b.n++
	}
	r.tick++
	if r.tick < r.stride {
		return
	}
	r.tick = 0
	for i := range r.bufs {
		b := &r.bufs[i]
		if b.n == 0 {
			continue
		}
		val := b.acc
		if r.kinds[i] == KindGauge {
			val /= float64(b.n) // mean over the window
		} else {
			val /= float64(b.n) * float64(r.every) // per-cycle rate
		}
		b.pts = append(b.pts, Point{Cycle: cycle, Val: val})
		b.acc, b.n = 0, 0
	}
	for i := range r.bufs {
		if len(r.bufs[i].pts) >= r.maxPoints {
			r.downsample()
			break
		}
	}
}

// downsample halves every series in place — adjacent points merge into one
// carrying the later cycle and the mean value (windows are equal-length, so
// the mean of two per-cycle rates is the rate over the merged window) — and
// doubles the retention stride.
func (r *Recorder) downsample() {
	for i := range r.bufs {
		pts := r.bufs[i].pts
		j := 0
		for k := 0; k+1 < len(pts); k += 2 {
			pts[j] = Point{Cycle: pts[k+1].Cycle, Val: (pts[k].Val + pts[k+1].Val) / 2}
			j++
		}
		if len(pts)%2 == 1 { // unpaired trailing point survives as-is
			pts[j] = pts[len(pts)-1]
			j++
		}
		r.bufs[i].pts = pts[:j]
	}
	r.stride *= 2
}

// Len returns the number of retained points for the named metric.
func (r *Recorder) Len(name string) int {
	if r == nil {
		return 0
	}
	for i, n := range r.names {
		if n == name {
			return len(r.bufs[i].pts)
		}
	}
	return 0
}

// Series returns every non-empty recorded series in sorted name order. The
// returned points alias the recorder's buffers; callers snapshot after the
// run.
func (r *Recorder) Series() []SeriesData {
	if r == nil {
		return nil
	}
	out := make([]SeriesData, 0, len(r.names))
	for i, n := range r.names {
		if len(r.bufs[i].pts) == 0 {
			continue
		}
		out = append(out, SeriesData{Name: n, Interval: r.Interval(), Points: r.bufs[i].pts})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// RunSeries groups one run's recorded series under the run's merged-output
// name ("main" for the hub's own, "label#seq" for a forked run).
type RunSeries struct {
	Run    string
	Series []SeriesData
}
