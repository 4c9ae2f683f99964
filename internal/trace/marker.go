package trace

import (
	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/heap"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/vmem"
)

// Span is a contiguous run of reference slots to be fetched by the tracer:
// the reference section of a newly marked object, or a slice of the root
// region.
type Span struct {
	VA    uint64
	Bytes uint64
}

// Marker is the traversal unit's mark pipeline (Figure 13). Instead of a
// cache with MSHRs it manages its own request slots — every request is an
// identical, unordered 8-byte status-word read, so a slot only needs a tag
// and an address. For each response it decides: already marked -> free the
// slot (write-back elided); newly marked -> issue the write-back and, if
// the object has references, enqueue its reference section to the tracer.
type Marker struct {
	eng    *sim.Engine
	h      *heap.Heap
	mq     *MarkQueue
	tq     *sim.Queue[Span]
	tr     *vmem.Translator
	issuer memIssuer
	mbc    *cache.MarkBits // optional filter; nil = disabled

	slots    int
	inflight int
	pendingT bool // a translation miss is outstanding

	tick *sim.Ticker

	// At most one translation is outstanding (pendingT), so the ref it is
	// for waits here and its completion is bound once.
	tRef       uint64
	resolvedFn func(pa uint64, ok bool)
	reqs       sim.FreeList[markReq]

	onTracerWork func() // wakes the tracer when tq gains an entry

	// Stats.
	Marks          uint64 // status reads issued
	NewlyMarked    uint64
	AlreadyMarked  uint64 // write-back elided
	Filtered       uint64 // elided entirely by the mark-bit cache
	EnqueuedSpans  uint64
	WritebackStall uint64

	// Probes, when non-nil, histograms status-word accesses per object
	// (Figure 21a). It counts every mark-queue pop for an object,
	// including ones the mark-bit cache filters.
	Probes map[uint64]int

	tel  *telemetry.Tracer    // nil = tracing disabled (fast path)
	hLat *telemetry.Histogram // mark issue-to-completion latency
}

// markReq carries one mark from its status read to its write-back. Its
// callbacks are bound once when it is created, so issuing, retrying and
// completing a mark never allocates; requests are reused through the
// marker's free list, which grows only while more marks are in flight
// than ever before.
type markReq struct {
	m     *Marker
	ref   uint64
	pa    uint64 // status word
	old   uint64 // status word before the mark AMO
	start uint64 // issue cycle

	done  func(uint64) // the status read returned
	retry func()       // reissue the status read
	wb    func()       // reissue the write-back
}

func (r *markReq) complete(uint64) { r.m.complete(r) }
func (r *markReq) reissue()        { r.m.issueRead(r) }
func (r *markReq) rewrite()        { r.m.writeback(r) }

// NewMarker builds a marker with the given number of request slots.
func NewMarker(eng *sim.Engine, h *heap.Heap, mq *MarkQueue, tq *sim.Queue[Span],
	tr *vmem.Translator, issuer memIssuer, slots int, mbc *cache.MarkBits) *Marker {
	m := &Marker{eng: eng, h: h, mq: mq, tq: tq, tr: tr, issuer: issuer, slots: slots, mbc: mbc}
	m.tick = sim.NewTicker(eng, m.step)
	m.resolvedFn = m.pageResolved
	m.reqs = sim.NewFreeList(m.newReq)
	return m
}

// Wake schedules the marker (queues wire this to their notify hooks).
func (m *Marker) Wake() { m.tick.Wake() }

// SetOnTracerWork registers the tracer wake callback.
func (m *Marker) SetOnTracerWork(fn func()) { m.onTracerWork = fn }

// Idle reports whether the marker has no work in flight.
func (m *Marker) Idle() bool { return m.inflight == 0 && !m.pendingT }

// step issues at most one mark per cycle.
//
//hwgc:hotpath
func (m *Marker) step() bool {
	if m.inflight >= m.slots || m.pendingT {
		return false
	}
	// Back-pressure: every in-flight mark may produce one tracer entry.
	if m.tq.Free() <= m.inflight {
		return false
	}
	if m.issuer.Free() == 0 {
		return false
	}
	ref, ok := m.mq.Pop()
	if !ok {
		return false
	}
	if m.Probes != nil {
		m.Probes[ref]++
	}
	if m.mbc != nil && m.mbc.Probe(ref) {
		m.Filtered++
		return true
	}
	statusVA := m.h.StatusAddr(ref)
	m.inflight++
	m.tRef = ref
	if !m.tr.Translate(statusVA, m.resolvedFn) {
		panic("trace: translator rejected while not busy")
	}
	if m.tr.Busy() {
		m.pendingT = true
	}
	return true
}

// pageResolved receives the translation of tRef's status word.
//
//hwgc:hotpath
func (m *Marker) pageResolved(pa uint64, ok bool) {
	m.pendingT = false
	if !ok {
		panic("trace: marker page fault")
	}
	m.issueMark(m.tRef, pa)
	m.tick.Wake()
}

// issueMark sends the status read; the functional fetch-or happens at issue
// so that overlapping marks of the same object stay idempotent.
func (m *Marker) issueMark(ref, pa uint64) {
	r := m.reqs.Get()
	r.ref, r.pa = ref, pa
	r.old = m.h.MarkAMO(m.h.StatusAddr(ref))
	r.start = m.eng.Now()
	m.issueRead(r)
}

// newReq makes a request with its callbacks bound.
func (m *Marker) newReq() *markReq {
	r := &markReq{m: m}
	r.done, r.retry, r.wb = r.complete, r.reissue, r.rewrite
	return r
}

func (m *Marker) issueRead(r *markReq) {
	if !m.issuer.TryIssue(r.pa, 8, dram.Read, r.done) {
		// Port full: undo nothing (AMO already applied, response
		// ordering is unaffected); retry next cycle.
		m.eng.After(1, r.retry)
		return
	}
	m.Marks++
}

// complete handles r's status read response: a newly marked object gets
// its write-back and, if it has references, a tracer span.
//
//hwgc:hotpath
func (m *Marker) complete(r *markReq) {
	ref, old, start := r.ref, r.old, r.start
	m.hLat.Observe(m.eng.Now() - start)
	if m.h.IsMarkedStatus(old) {
		m.AlreadyMarked++
		if m.tel != nil {
			m.tel.Complete1("tracer.marker", "mark-dup", start, m.eng.Now(), "ref", ref)
		}
		m.reqs.Put(r)
		m.freeSlot()
		return
	}
	m.NewlyMarked++
	if m.tel != nil {
		m.tel.Complete1("tracer.marker", "mark-new", start, m.eng.Now(), "ref", ref)
	}
	m.writeback(r)
	if n := heap.NumRefs(old); n > 0 {
		va, bytes := m.h.RefSpan(ref, n)
		if !m.tq.Push(Span{VA: va, Bytes: bytes}) {
			// Cannot happen: step reserves a tq slot per in-flight
			// mark.
			panic("trace: tracer queue overflow despite reservation")
		}
		m.EnqueuedSpans++
		if m.onTracerWork != nil {
			m.onTracerWork()
		}
	}
	m.freeSlot()
}

// writeback stores the updated status word (fire-and-forget); once it is
// issued, r returns to the free list.
//
//hwgc:hotpath
func (m *Marker) writeback(r *markReq) {
	if !m.issuer.TryIssue(r.pa, 8, dram.Write, nil) {
		m.WritebackStall++
		m.eng.After(1, r.wb)
		return
	}
	m.reqs.Put(r)
}

func (m *Marker) freeSlot() {
	m.inflight--
	m.tick.Wake()
}
