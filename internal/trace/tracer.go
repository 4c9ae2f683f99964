package trace

import (
	"hwgc/internal/dram"
	"hwgc/internal/heap"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/vmem"
)

// Tracer is the traversal unit's reference-fetch pipeline (Figure 14): it
// pops reference-section spans from its input queue and issues the largest
// aligned transfers the interconnect allows (8–64 bytes), splitting at page
// boundaries so every request re-passes the TLB. Requests are untagged —
// the tracer keeps no per-request state and pushes the references from each
// response into the mark queue in whatever order responses return.
//
// The unit pre-reserves mark-queue capacity per chunk so a response never
// has to drop references, and it stops issuing while the mark queue asserts
// its throttle signal (outQ nearly full).
type Tracer struct {
	eng    *sim.Engine
	h      *heap.Heap
	in     *sim.Queue[Span]
	mq     *MarkQueue
	tr     *vmem.Translator
	issuer memIssuer

	cur        Span
	curPA      uint64
	curValid   bool
	translated bool
	pendingT   bool

	inflight int
	tick     *sim.Ticker

	resolvedFn func(pa uint64, ok bool) // bound once: cur's page resolved
	chunks     sim.FreeList[chunkSlot]

	onSpanConsumed func() // wakes the marker when input space frees

	// Stats.
	Spans       uint64
	ChunkReqs   uint64
	RefsFetched uint64
	RefsPushed  uint64
	Throttled   uint64 // cycles skipped due to the mark-queue throttle

	tel     *telemetry.Tracer // nil = tracing disabled (fast path)
	telUnit string            // "tracer.tracer" or "tracer.reader", set at attach
}

// chunkSlot carries one in-flight chunk read. Its completion is bound once
// when the slot is created, so issuing a chunk never allocates; slots are
// reused through the tracer's free list, which grows only while more
// chunks are in flight than ever before.
type chunkSlot struct {
	t     *Tracer
	pa    uint64
	refs  int
	start uint64 // issue cycle (trace spans; 0 when tracing is off)
	done  func(uint64)
}

// NewTracer builds a tracer over the given input span queue.
func NewTracer(eng *sim.Engine, h *heap.Heap, in *sim.Queue[Span], mq *MarkQueue,
	tr *vmem.Translator, issuer memIssuer) *Tracer {
	t := &Tracer{eng: eng, h: h, in: in, mq: mq, tr: tr, issuer: issuer}
	t.tick = sim.NewTicker(eng, t.step)
	t.resolvedFn = t.pageResolved
	t.chunks = sim.NewFreeList(t.newChunk)
	return t
}

// Wake schedules the tracer.
func (t *Tracer) Wake() { t.tick.Wake() }

// SetOnSpanConsumed registers the producer wake callback.
func (t *Tracer) SetOnSpanConsumed(fn func()) { t.onSpanConsumed = fn }

// Idle reports whether the tracer holds no work.
func (t *Tracer) Idle() bool {
	return !t.curValid && t.inflight == 0 && t.in.Empty() && !t.pendingT
}

// step issues at most one chunk request per cycle.
//
//hwgc:hotpath
func (t *Tracer) step() bool {
	if t.pendingT {
		return false
	}
	if t.mq.TracerThrottled() {
		t.Throttled++
		return false
	}
	if !t.curValid {
		span, ok := t.in.Pop()
		if !ok {
			return false
		}
		t.cur = span
		t.curValid = true
		t.translated = false
		t.Spans++
		if t.onSpanConsumed != nil {
			t.onSpanConsumed()
		}
	}
	if !t.translated {
		if !t.tr.Translate(t.cur.VA, t.resolvedFn) {
			panic("trace: translator rejected while not busy")
		}
		if t.tr.Busy() {
			t.pendingT = true
			return false
		}
		// TLB hit resolved synchronously; fall through and issue.
	}

	size := t.chunkSize()
	refs := int(size / 8)
	if !t.mq.CanReserve(refs) || t.issuer.Free() == 0 {
		return false
	}
	t.mq.Reserve(refs)
	c := t.chunks.Get()
	c.pa, c.refs, c.start = t.curPA, refs, 0
	if t.tel != nil {
		c.start = t.eng.Now()
	}
	if !t.issuer.TryIssue(c.pa, size, dram.Read, c.done) {
		t.chunks.Put(c)
		t.mq.Unreserve(refs)
		return false
	}
	t.ChunkReqs++
	t.inflight++

	// Advance the span; crossing into a new page forces re-translation.
	t.cur.VA += size
	t.curPA += size
	t.cur.Bytes -= size
	if t.cur.Bytes == 0 {
		t.curValid = false
	} else if t.cur.VA%vmem.PageSize == 0 {
		t.translated = false
	}
	return true
}

// pageResolved receives the translation of the current span's page.
//
//hwgc:hotpath
func (t *Tracer) pageResolved(pa uint64, ok bool) {
	t.pendingT = false
	if !ok {
		panic("trace: tracer page fault")
	}
	t.curPA = pa
	t.translated = true
	t.tick.Wake()
}

// newChunk makes a slot with its completion bound.
func (t *Tracer) newChunk() *chunkSlot {
	c := &chunkSlot{t: t}
	c.done = c.complete
	return c
}

func (c *chunkSlot) complete(uint64) { c.t.chunkDone(c) }

// chunkSize picks the largest legal transfer: a power of two in [8, 64]
// that divides the current VA and does not overshoot the span or the page.
func (t *Tracer) chunkSize() uint64 {
	remaining := t.cur.Bytes
	toPage := vmem.PageSize - t.cur.VA%vmem.PageSize
	max := uint64(64)
	if remaining < max {
		max = remaining
	}
	if toPage < max {
		max = toPage
	}
	size := uint64(64)
	for size > 8 && (t.cur.VA%size != 0 || size > max) {
		size >>= 1
	}
	return size
}

// chunkDone functionally reads the fetched reference slots and pushes the
// non-null ones into the mark queue, then frees c.
//
//hwgc:hotpath
func (t *Tracer) chunkDone(c *chunkSlot) {
	pa, refs, start := c.pa, c.refs, c.start
	t.chunks.Put(c)
	if t.tel != nil {
		t.tel.Complete2(t.telUnit, "chunk", start, t.eng.Now(),
			"pa", pa, "refs", uint64(refs))
	}
	for i := 0; i < refs; i++ {
		t.RefsFetched++
		ref := t.h.Mem.Load64(pa + uint64(8*i))
		if ref == 0 {
			t.mq.Unreserve(1)
			continue
		}
		if !t.mq.Push(ref) {
			panic("trace: mark queue overflow despite reservation")
		}
		t.RefsPushed++
	}
	t.inflight--
	t.tick.Wake()
}

// attachTelemetry registers the tracer's metrics under unit.* (the traversal
// unit owns two Tracer instances — the tracer proper and the root reader —
// so the unit name disambiguates) and enables per-chunk trace spans.
func (t *Tracer) attachTelemetry(h *telemetry.Hub, unit string) {
	t.tel = h.Tracer()
	t.telUnit = unit
	reg := h.Registry()
	prefix := unit + "."
	reg.CounterFunc(prefix+"spans", func() uint64 { return t.Spans })
	reg.CounterFunc(prefix+"chunkreqs", func() uint64 { return t.ChunkReqs })
	reg.CounterFunc(prefix+"refsfetched", func() uint64 { return t.RefsFetched })
	reg.CounterFunc(prefix+"refspushed", func() uint64 { return t.RefsPushed })
	reg.CounterFunc(prefix+"throttled", func() uint64 { return t.Throttled })
	reg.Gauge(prefix+"inflight", func() float64 { return float64(t.inflight) })
	reg.Gauge(prefix+"inq.occupancy", func() float64 { return float64(t.in.Len()) })
}
