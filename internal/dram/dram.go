// Package dram models main-memory timing: a DDR3-style bank/row model with
// open-page policy and a memory-access scheduler (FR-FCFS or FIFO), plus the
// ideal latency-bandwidth pipe used for the paper's "potential performance"
// experiment (Figure 17).
//
// The bank-state timing core is shared between two front ends:
//
//   - an event-driven scheduler (DDR3) used by the GC unit, which keeps many
//     requests in flight and benefits from FR-FCFS reordering, and
//   - a synchronous adapter (Sync) used by the blocking in-order CPU model,
//     which issues one access at a time and just needs a completion cycle.
//
// All times are in core-clock cycles (1 GHz in the paper's configuration, so
// one cycle = 1 ns).
package dram

import (
	"strconv"

	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
)

// Kind classifies a memory request.
type Kind uint8

const (
	// Read fetches data.
	Read Kind = iota
	// Write stores data.
	Write
	// AMO is an atomic read-modify-write (the marker's fetch-or). It
	// occupies the data bus for both the read and the write beat.
	AMO
)

// Policy selects the memory-access scheduler.
type Policy uint8

const (
	// FRFCFS prefers row-buffer hits over older requests (first-ready,
	// first-come-first-served).
	FRFCFS Policy = iota
	// FIFO issues strictly in arrival order.
	FIFO
)

// Config holds the DRAM organization and timing. The defaults correspond to
// the paper's Table I: single-rank DDR3-2000 behind an FR-FCFS scheduler
// with an open-page policy and 14-14-14 ns core timings at a 1 GHz clock.
type Config struct {
	Banks            int    // number of banks (power of two)
	RowBytes         uint64 // row-buffer size per bank
	TRCD             uint64 // activate-to-read, cycles
	TRP              uint64 // precharge, cycles
	TCAS             uint64 // read-to-data, cycles
	BusBytesPerCycle uint64 // data-bus throughput
	MaxReads         int    // in-flight requests allowed by the controller
	QueueDepth       int    // scheduler queue capacity
	Policy           Policy
	ClosedPage       bool // if set, precharge after every access
}

// DDR3_2000 returns the paper's DDR3-2000 configuration (Table I) with the
// given number of in-flight requests (the paper uses 16 for reads and 8 for
// writes; we model a single limit).
func DDR3_2000(maxReads int) Config {
	return Config{
		Banks:            8,
		RowBytes:         8192,
		TRCD:             14,
		TRP:              14,
		TCAS:             14,
		BusBytesPerCycle: 16, // 2000 MT/s x 8 B at a 1 GHz core clock
		MaxReads:         maxReads,
		QueueDepth:       32,
		Policy:           FRFCFS,
	}
}

// bankState tracks one bank's open row and availability, plus per-bank
// row-outcome counters for the telemetry registry
// (dram.bank<i>.rowconflicts and friends).
type bankState struct {
	openRow int64 // -1 when closed
	readyAt uint64

	hits      uint64
	misses    uint64
	conflicts uint64
}

// Row outcomes classified by timing.access.
const (
	outcomeHit = iota
	outcomeMiss
	outcomeConflict
)

// timing is the shared bank/bus state machine.
type timing struct {
	cfg     Config
	banks   []bankState
	busFree uint64

	// Stats.
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	Bytes        uint64
	Accesses     uint64

	// lastBank/lastOutcome describe the most recent access (read by the
	// event tracer right after access returns; single-threaded).
	lastBank    int
	lastOutcome uint8
}

func newTiming(cfg Config) *timing {
	t := &timing{cfg: cfg, banks: make([]bankState, cfg.Banks)}
	for i := range t.banks {
		t.banks[i].openRow = -1
	}
	return t
}

func (t *timing) bankRow(addr uint64) (bank int, row int64) {
	// row:bank:column mapping with XOR bank hashing — a sequential
	// stream stays in one bank's open row for a full row's worth of data
	// before moving on, and the row bits permute the bank order so that
	// concurrent sequential streams (parallel block sweepers) do not
	// visit banks in lockstep.
	row = int64(addr / (t.cfg.RowBytes * uint64(t.cfg.Banks)))
	bank = int((addr/t.cfg.RowBytes)^uint64(row)) & (t.cfg.Banks - 1)
	return bank, row
}

// rowHit reports whether addr would hit the currently open row.
func (t *timing) rowHit(addr uint64) bool {
	bank, row := t.bankRow(addr)
	return t.banks[bank].openRow == row
}

// access schedules one request at or after now and returns its completion
// cycle, mutating bank and bus state.
func (t *timing) access(now uint64, addr uint64, size uint64, kind Kind) uint64 {
	bank, row := t.bankRow(addr)
	b := &t.banks[bank]

	start := max64(now, b.readyAt)
	burst := (size + t.cfg.BusBytesPerCycle - 1) / t.cfg.BusBytesPerCycle
	if burst == 0 {
		burst = 1
	}
	if kind == AMO {
		burst *= 2 // read beat + write beat
	}

	// cmdLat is the latency until data; occupancy is how long the bank
	// itself is tied up before it can accept the next command. Row hits
	// pipeline at the column-command rate (the burst time stands in for
	// tCCD); activates and precharges occupy the bank for tRCD/tRP.
	var cmdLat, occupancy uint64
	switch {
	case b.openRow == row:
		cmdLat = t.cfg.TCAS
		occupancy = burst
		t.RowHits++
		b.hits++
		t.lastOutcome = outcomeHit
	case b.openRow == -1:
		cmdLat = t.cfg.TRCD + t.cfg.TCAS
		occupancy = t.cfg.TRCD + burst
		t.RowMisses++
		b.misses++
		t.lastOutcome = outcomeMiss
	default:
		cmdLat = t.cfg.TRP + t.cfg.TRCD + t.cfg.TCAS
		occupancy = t.cfg.TRP + t.cfg.TRCD + burst
		t.RowConflicts++
		b.conflicts++
		t.lastOutcome = outcomeConflict
	}
	t.lastBank = bank
	if t.cfg.ClosedPage {
		b.openRow = -1
	} else {
		b.openRow = row
	}

	dataStart := max64(start+cmdLat, t.busFree)
	finish := dataStart + burst
	t.busFree = finish
	b.readyAt = start + occupancy

	t.Bytes += size
	t.Accesses++
	return finish
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Request is a memory request submitted to an event-driven model. Done is
// invoked exactly once, at the completion cycle.
type Request struct {
	Addr uint64
	Size uint64
	Kind Kind
	Done func(finish uint64)
}

// Memory is the event-driven interface shared by DDR3 and Pipe.
type Memory interface {
	// Enqueue submits a request. It returns false when the scheduler
	// queue is full; the caller must retry after OnSpace fires.
	Enqueue(r Request) bool
	// SetOnSpace registers a callback invoked whenever queue space or
	// in-flight slots free up.
	SetOnSpace(fn func())
	// Stats returns cumulative counters.
	Stats() Stats
}

// Stats holds cumulative memory-system counters.
type Stats struct {
	Accesses     uint64
	Bytes        uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	BusyCycles   uint64
}

// DDR3 is the event-driven DDR3 model with a memory-access scheduler.
type DDR3 struct {
	eng      *sim.Engine
	cfg      Config
	t        *timing
	pending  []pendingReq
	seq      uint64
	inflight int
	tick     *sim.Ticker
	onSpace  func()
	lastBusy uint64
	busy     uint64

	// Completions are FIFO — access() returns strictly increasing finish
	// cycles — so issued requests park their Done callbacks in a queue
	// drained by one pre-bound event function instead of allocating a
	// closure per request.
	comps      *sim.Queue[completion]
	completeFn func()
	wakeFn     func()

	tel      *telemetry.Tracer // nil = tracing disabled (fast path)
	rReqs    *telemetry.Rate
	rBytes   *telemetry.Rate
	hLatency *telemetry.Histogram
}

type pendingReq struct {
	req Request
	seq uint64
}

type completion struct {
	finish uint64
	done   func(uint64)
}

// NewDDR3 returns an event-driven DDR3 model attached to eng.
func NewDDR3(eng *sim.Engine, cfg Config) *DDR3 {
	d := &DDR3{eng: eng, cfg: cfg, t: newTiming(cfg), comps: sim.NewQueue[completion](0)}
	d.tick = sim.NewTicker(eng, d.step)
	d.wakeFn = d.tick.Wake
	d.completeFn = func() {
		c, _ := d.comps.Pop()
		d.inflight--
		if c.done != nil {
			c.done(c.finish)
		}
		d.tick.Wake()
		if d.onSpace != nil {
			d.onSpace()
		}
	}
	return d
}

// Enqueue implements Memory.
//
//hwgc:hotpath
func (d *DDR3) Enqueue(r Request) bool {
	if d.cfg.QueueDepth > 0 && len(d.pending) >= d.cfg.QueueDepth {
		return false
	}
	d.seq++
	d.pending = append(d.pending, pendingReq{req: r, seq: d.seq})
	d.tick.Wake()
	return true
}

// SetOnSpace implements Memory.
func (d *DDR3) SetOnSpace(fn func()) { d.onSpace = fn }

// rowPatience is how long an open row with recent activity is protected
// from a conflicting request: the scheduler waits this many cycles for
// further row hits before allowing the precharge. This keeps interleaved
// sequential streams (parallel sweepers) from thrashing each other's row
// buffers at every access.
const rowPatience = 12

// step issues at most one command per cycle, respecting the in-flight limit
// and the scheduling policy.
//
//hwgc:hotpath
func (d *DDR3) step() bool {
	if len(d.pending) == 0 {
		return false
	}
	if d.cfg.MaxReads > 0 && d.inflight >= d.cfg.MaxReads {
		return false
	}
	idx := 0
	if d.cfg.Policy == FRFCFS {
		idx = -1
		for i, p := range d.pending {
			if d.t.rowHit(p.req.Addr) {
				idx = i
				break
			}
		}
		if idx < 0 {
			// No row hit pending: pick the oldest request whose
			// bank's open row has gone quiet; hold off on banks
			// with recent activity in case their stream continues.
			now := d.eng.Now()
			for i, p := range d.pending {
				bank, _ := d.t.bankRow(p.req.Addr)
				if d.t.banks[bank].readyAt+rowPatience <= now {
					idx = i
					break
				}
			}
			if idx < 0 {
				// Everything conflicts with a live row: retry
				// shortly rather than thrash.
				d.eng.After(rowPatience/2, d.wakeFn)
				return false
			}
		}
	}
	p := d.pending[idx]
	d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
	now := d.eng.Now()
	finish := d.t.access(now, p.req.Addr, p.req.Size, p.req.Kind)
	d.rReqs.Inc()
	d.rBytes.Add(p.req.Size)
	d.hLatency.Observe(finish - now)
	if d.tel != nil {
		d.tel.Complete2("dram", outcomeEventName[d.t.lastOutcome], now, finish,
			"bank", uint64(d.t.lastBank), "bytes", p.req.Size)
	}
	d.busy += finish - max64(now, d.lastBusy)
	if finish > d.lastBusy {
		d.lastBusy = finish
	}
	d.inflight++
	d.comps.Push(completion{finish: finish, done: p.req.Done})
	d.eng.At(finish, d.completeFn)
	if d.onSpace != nil {
		d.eng.After(1, d.onSpace)
	}
	return len(d.pending) > 0
}

// outcomeEventName maps row outcomes to trace-event names (constants, so
// emitting an event never builds a string).
var outcomeEventName = [...]string{
	outcomeHit:      "req-rowhit",
	outcomeMiss:     "req-rowmiss",
	outcomeConflict: "req-rowconflict",
}

// AttachTelemetry registers the controller's metrics under dram.* and
// enables per-request trace spans (named by row outcome, annotated with
// bank and size). Bank states — open row and busy flag per bank — are
// gauges, so the cycle sampler turns them into time series.
func (d *DDR3) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	d.tel = h.Tracer()
	reg := h.Registry()
	d.rReqs = reg.Rate("dram.requests")
	d.rBytes = reg.Rate("dram.bytes")
	d.hLatency = reg.Histogram("dram.latency")
	reg.CounterFunc("dram.accesses", func() uint64 { return d.t.Accesses })
	reg.CounterFunc("dram.rowhits", func() uint64 { return d.t.RowHits })
	reg.CounterFunc("dram.rowmisses", func() uint64 { return d.t.RowMisses })
	reg.CounterFunc("dram.rowconflicts", func() uint64 { return d.t.RowConflicts })
	reg.CounterFunc("dram.busycycles", func() uint64 { return d.busy })
	reg.Gauge("dram.queue.depth", func() float64 { return float64(len(d.pending)) })
	reg.Gauge("dram.inflight", func() float64 { return float64(d.inflight) })
	for i := range d.t.banks {
		b := &d.t.banks[i]
		prefix := "dram.bank" + strconv.Itoa(i) + "."
		reg.Gauge(prefix+"openrow", func() float64 { return float64(b.openRow) })
		reg.Gauge(prefix+"busy", func() float64 {
			if b.readyAt > d.eng.Now() {
				return 1
			}
			return 0
		})
		reg.CounterFunc(prefix+"rowhits", func() uint64 { return b.hits })
		reg.CounterFunc(prefix+"rowmisses", func() uint64 { return b.misses })
		reg.CounterFunc(prefix+"rowconflicts", func() uint64 { return b.conflicts })
	}
}

// Stats implements Memory.
func (d *DDR3) Stats() Stats {
	return Stats{
		Accesses:     d.t.Accesses,
		Bytes:        d.t.Bytes,
		RowHits:      d.t.RowHits,
		RowMisses:    d.t.RowMisses,
		RowConflicts: d.t.RowConflicts,
		BusyCycles:   d.busy,
	}
}

// Pending returns the scheduler queue depth (for tests).
func (d *DDR3) Pending() int { return len(d.pending) }

// Pipe is the ideal memory from Figure 17: fixed latency and a pure
// bandwidth limit, no banks. Like DDR3, completions are FIFO (finish
// cycles are strictly increasing), so Done callbacks park in a queue
// drained by one pre-bound event function.
type Pipe struct {
	eng           *sim.Engine
	Latency       uint64
	BytesPerCycle uint64
	busFree       uint64
	onSpace       func()
	stats         Stats

	comps      *sim.Queue[completion]
	completeFn func()
}

// NewPipe returns a latency-bandwidth pipe (the paper uses 1 cycle and
// 8 GB/s, i.e. 8 bytes per cycle at 1 GHz).
func NewPipe(eng *sim.Engine, latency, bytesPerCycle uint64) *Pipe {
	p := &Pipe{eng: eng, Latency: latency, BytesPerCycle: bytesPerCycle,
		comps: sim.NewQueue[completion](0)}
	p.completeFn = func() {
		c, _ := p.comps.Pop()
		c.done(c.finish)
	}
	return p
}

// Enqueue implements Memory. The pipe never refuses requests.
//
//hwgc:hotpath
func (p *Pipe) Enqueue(r Request) bool {
	now := p.eng.Now()
	burst := (r.Size + p.BytesPerCycle - 1) / p.BytesPerCycle
	if burst == 0 {
		burst = 1
	}
	if r.Kind == AMO {
		burst *= 2
	}
	start := max64(now, p.busFree)
	finish := start + burst + p.Latency
	p.stats.BusyCycles += (start + burst) - max64(now, p.busFree-burst)
	p.busFree = start + burst
	p.stats.Accesses++
	p.stats.Bytes += r.Size
	if r.Done != nil {
		p.comps.Push(completion{finish: finish, done: r.Done})
		p.eng.At(finish, p.completeFn)
	}
	return true
}

// SetOnSpace implements Memory.
func (p *Pipe) SetOnSpace(fn func()) { p.onSpace = fn }

// Stats implements Memory.
func (p *Pipe) Stats() Stats { return p.stats }

// AttachTelemetry registers the pipe's counters under dram.* (the pipe has
// no banks, so there are no bank-state gauges).
func (p *Pipe) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	reg := h.Registry()
	reg.CounterFunc("dram.accesses", func() uint64 { return p.stats.Accesses })
	reg.CounterFunc("dram.bytes.total", func() uint64 { return p.stats.Bytes })
	reg.CounterFunc("dram.busycycles", func() uint64 { return p.stats.BusyCycles })
}

// AttachTelemetry registers the synchronous (CPU-side) controller's
// counters under dram.sync.*.
func (s *Sync) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	reg := h.Registry()
	reg.CounterFunc("dram.sync.accesses", func() uint64 { return s.t.Accesses })
	reg.CounterFunc("dram.sync.bytes", func() uint64 { return s.t.Bytes })
	reg.CounterFunc("dram.sync.rowhits", func() uint64 { return s.t.RowHits })
	reg.CounterFunc("dram.sync.rowmisses", func() uint64 { return s.t.RowMisses })
	reg.CounterFunc("dram.sync.rowconflicts", func() uint64 { return s.t.RowConflicts })
}

// SyncMemory is the synchronous view used by the trace-driven CPU model:
// one access at a time, returning its completion cycle.
type SyncMemory interface {
	// Access performs one request issued at cycle now and returns the
	// cycle at which its data is available.
	Access(now uint64, addr uint64, size uint64, kind Kind) uint64
	// Stats returns cumulative counters.
	Stats() Stats
}

// Sync adapts the bank-timing core for a blocking requester.
type Sync struct {
	t *timing

	// Bandwidth, when non-nil, accumulates DRAM bytes per interval (the
	// CPU-side series in Figure 16).
	Bandwidth *sim.Series
}

// NewSync returns a synchronous DDR3 view with the given configuration.
func NewSync(cfg Config) *Sync { return &Sync{t: newTiming(cfg)} }

// Access implements SyncMemory.
func (s *Sync) Access(now uint64, addr uint64, size uint64, kind Kind) uint64 {
	if s.Bandwidth != nil {
		s.Bandwidth.Add(now, float64(size))
	}
	return s.t.access(now, addr, size, kind)
}

// Stats implements SyncMemory.
func (s *Sync) Stats() Stats {
	return Stats{
		Accesses:     s.t.Accesses,
		Bytes:        s.t.Bytes,
		RowHits:      s.t.RowHits,
		RowMisses:    s.t.RowMisses,
		RowConflicts: s.t.RowConflicts,
	}
}

// SyncPipe is the synchronous view of the ideal pipe.
type SyncPipe struct {
	Latency       uint64
	BytesPerCycle uint64
	busFree       uint64
	stats         Stats
}

// NewSyncPipe returns a synchronous latency-bandwidth pipe.
func NewSyncPipe(latency, bytesPerCycle uint64) *SyncPipe {
	return &SyncPipe{Latency: latency, BytesPerCycle: bytesPerCycle}
}

// Access implements SyncMemory.
func (p *SyncPipe) Access(now uint64, addr uint64, size uint64, kind Kind) uint64 {
	burst := (size + p.BytesPerCycle - 1) / p.BytesPerCycle
	if burst == 0 {
		burst = 1
	}
	if kind == AMO {
		burst *= 2
	}
	start := max64(now, p.busFree)
	p.busFree = start + burst
	p.stats.Accesses++
	p.stats.Bytes += size
	return start + burst + p.Latency
}

// Stats implements SyncMemory.
func (p *SyncPipe) Stats() Stats { return p.stats }
