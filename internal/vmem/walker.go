package vmem

import (
	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/tilelink"
)

// Walker is the GC unit's blocking page-table walker. TLB misses from all
// of the unit's translators funnel here and are served one at a time — the
// serialization the paper identifies as a bottleneck ("future work should
// introduce a non-blocking TLB").
//
// PTE fetches go through either a small dedicated cache (the 8 KB PTW cache
// of the partitioned design) or a direct interconnect port (the shared-cache
// design routes them through the shared cache instead).
type Walker struct {
	eng   *sim.Engine
	pt    *PageTable
	cache *cache.Event
	port  *tilelink.Port
	l2    *TLB

	queue *sim.Queue[walkReq]
	busy  bool

	// The walk in service. Walks are served one at a time, so its state
	// lives here and its PTE reads complete through callbacks bound once.
	cur       walkReq
	ptes      [Levels]uint64
	nPTEs     int
	next      int // index of the PTE read in flight (or to retry)
	pa        uint64
	bits      int
	valid     bool
	pteDoneFn func(uint64) // the current PTE read returned
	retryFn   func()       // reissue the current PTE read

	// L2-TLB hits complete after a fixed l2HitLat cycles, so they finish
	// in FIFO order: their results wait in a ring drained by one bound
	// event function.
	l2Hits  *sim.Queue[l2Hit]
	l2HitFn func()

	// Walks counts completed walks, PTEFetches individual PTE reads,
	// Faults unmapped translations, L2Hits walks satisfied by the shared
	// second-level TLB.
	Walks      uint64
	PTEFetches uint64
	Faults     uint64
	L2Hits     uint64

	tel     *telemetry.Tracer // nil = tracing disabled (fast path)
	telUnit string            // "<owner>.walker", precomputed at attach
}

// WalkDone receives a walk's result: the physical address, the log2 size
// of the mapping page, and false for an unmapped address.
type WalkDone func(pa uint64, pageBits int, ok bool)

type walkReq struct {
	va    uint64
	start uint64 // request cycle (trace spans; 0 when tracing is off)
	done  WalkDone
}

// l2HitLat is the latency of a walk the shared L2 TLB satisfies.
const l2HitLat = 2

type l2Hit struct {
	pa    uint64
	bits  int
	valid bool
	done  WalkDone
}

// NewWalker returns a walker reading page tables rooted in pt. Exactly one
// of ptwCache and port must be non-nil. l2 may be nil (no shared L2 TLB).
func NewWalker(eng *sim.Engine, pt *PageTable, ptwCache *cache.Event, port *tilelink.Port, l2 *TLB) *Walker {
	if (ptwCache == nil) == (port == nil) {
		panic("vmem: walker needs exactly one of cache or port")
	}
	w := &Walker{eng: eng, pt: pt, cache: ptwCache, port: port, l2: l2,
		queue: sim.NewQueue[walkReq](0), l2Hits: sim.NewQueue[l2Hit](0)}
	w.pteDoneFn = w.pteDone
	w.retryFn = w.fetchPTE
	w.l2HitFn = func() {
		h, _ := w.l2Hits.Pop()
		h.done(h.pa, h.bits, h.valid)
	}
	return w
}

// Walk translates va, invoking done when the translation (or fault)
// resolves. Requests are served in order, one at a time.
//
//hwgc:hotpath
func (w *Walker) Walk(va uint64, done WalkDone) {
	// Shared L2 TLB probe happens before occupying the walker.
	if w.l2 != nil {
		if _, ok := w.l2.Lookup(va); ok {
			w.L2Hits++
			pa, bits, _, _, valid := w.pt.Walk(va)
			w.l2Hits.Push(l2Hit{pa: pa, bits: bits, valid: valid, done: done})
			w.eng.After(l2HitLat, w.l2HitFn)
			return
		}
	}
	var start uint64
	if w.tel != nil {
		start = w.eng.Now()
	}
	w.queue.Push(walkReq{va: va, start: start, done: done})
	w.kick()
}

func (w *Walker) kick() {
	if w.busy {
		return
	}
	req, ok := w.queue.Pop()
	if !ok {
		return
	}
	w.busy = true
	w.cur = req
	w.pa, w.bits, w.ptes, w.nPTEs, w.valid = w.pt.Walk(req.va)
	w.next = 0
	w.fetchPTE()
}

// fetchPTE issues the current walk's next PTE read; when the last one
// returns, the walk completes.
func (w *Walker) fetchPTE() {
	if w.next >= w.nPTEs {
		w.finish()
		return
	}
	w.PTEFetches++
	addr := w.ptes[w.next]
	if w.cache != nil {
		if !w.cache.Access(cache.Access{Addr: addr, Size: 8, Kind: dram.Read, Source: "ptw", Done: w.pteDoneFn}) {
			w.PTEFetches--
			w.eng.After(1, w.retryFn)
		}
		return
	}
	if !w.port.Issue(dram.Request{Addr: addr, Size: 8, Kind: dram.Read, Done: w.pteDoneFn}) {
		w.eng.After(1, w.retryFn)
	}
}

// pteDone advances the walk past the PTE read that returned.
//
//hwgc:hotpath
func (w *Walker) pteDone(uint64) {
	w.next++
	w.fetchPTE()
}

// finish reports the walk in service and starts the next queued one.
//
//hwgc:hotpath
func (w *Walker) finish() {
	req, pa, bits, valid := w.cur, w.pa, w.bits, w.valid
	w.cur = walkReq{}
	w.Walks++
	if !valid {
		w.Faults++
	} else if w.l2 != nil {
		w.l2.Insert(req.va, pa, bits)
	}
	if w.tel != nil {
		w.tel.Complete1(w.telUnit, "walk", req.start, w.eng.Now(), "va", req.va)
	}
	w.busy = false
	// done may start the next walk (through Walk), which overwrites the
	// walk state: everything it needs was copied above.
	req.done(pa, bits, valid)
	w.kick()
}

// QueueLen returns the number of pending walks (tests).
func (w *Walker) QueueLen() int { return w.queue.Len() }

// AttachTelemetry registers the walker's metrics under <owner>.walker.*
// (owner distinguishes the traversal unit's walker from the reclamation
// unit's) and enables per-walk trace spans covering request to completion,
// queueing included.
func (w *Walker) AttachTelemetry(h *telemetry.Hub, owner string) {
	if h == nil {
		return
	}
	w.tel = h.Tracer()
	w.telUnit = owner + ".walker"
	reg := h.Registry()
	prefix := w.telUnit + "."
	reg.CounterFunc(prefix+"walks", func() uint64 { return w.Walks })
	reg.CounterFunc(prefix+"ptefetches", func() uint64 { return w.PTEFetches })
	reg.CounterFunc(prefix+"faults", func() uint64 { return w.Faults })
	reg.CounterFunc(prefix+"l2hits", func() uint64 { return w.L2Hits })
	reg.Gauge(prefix+"queue.occupancy", func() float64 { return float64(w.queue.Len()) })
}

// Translator is a per-unit L1 TLB front end over the shared walker. It is
// blocking: while a miss is outstanding the unit cannot translate further
// addresses, mirroring the paper's single-walk-at-a-time TLBs.
type Translator struct {
	eng    *sim.Engine
	tlb    *TLB
	walker *Walker
	busy   bool

	// The outstanding miss (at most one): its address, its requester's
	// completion, and the walk completion handed to the walker, bound
	// once.
	va       uint64
	done     func(pa uint64, ok bool)
	walkedFn WalkDone
}

// NewTranslator returns a translator with its own TLB over walker.
func NewTranslator(eng *sim.Engine, tlb *TLB, walker *Walker) *Translator {
	tr := &Translator{eng: eng, tlb: tlb, walker: walker}
	tr.walkedFn = tr.walked
	return tr
}

// TLB exposes the translator's TLB (stats, flush).
func (tr *Translator) TLB() *TLB { return tr.tlb }

// Translate resolves va. On a TLB hit, done runs synchronously (the lookup
// is folded into the requesting pipeline's issue stage) and Translate
// returns true. On a miss, the walk is started and done runs later; further
// Translate calls return false until it completes.
//
//hwgc:hotpath
func (tr *Translator) Translate(va uint64, done func(pa uint64, ok bool)) bool {
	if tr.busy {
		return false
	}
	if pa, ok := tr.tlb.Lookup(va); ok {
		done(pa, true)
		return true
	}
	tr.busy = true
	tr.va, tr.done = va, done
	tr.walker.Walk(va, tr.walkedFn)
	return true
}

// walked completes the outstanding miss: fill the TLB, then hand the
// result to the requester (which may translate again at once).
//
//hwgc:hotpath
func (tr *Translator) walked(pa uint64, bits int, ok bool) {
	if ok {
		tr.tlb.Insert(tr.va, pa, bits)
	}
	done := tr.done
	tr.done = nil
	tr.busy = false
	done(pa, ok)
}

// Busy reports whether a miss is outstanding.
func (tr *Translator) Busy() bool { return tr.busy }

// SyncTranslator is the CPU-side TLB + walker: misses walk the page table
// synchronously through the given memory level (the L1 data cache in
// Rocket), advancing the clock.
type SyncTranslator struct {
	tlb  *TLB
	pt   *PageTable
	next dram.SyncMemory

	// Faults counts unmapped translations.
	Faults uint64
}

// NewSyncTranslator returns a CPU translator.
func NewSyncTranslator(tlb *TLB, pt *PageTable, next dram.SyncMemory) *SyncTranslator {
	return &SyncTranslator{tlb: tlb, pt: pt, next: next}
}

// TLB exposes the CPU TLB.
func (st *SyncTranslator) TLB() *TLB { return st.tlb }

// Translate resolves va at cycle now, returning the physical address and
// the cycle at which the translation is available.
func (st *SyncTranslator) Translate(now uint64, va uint64) (pa uint64, finish uint64, ok bool) {
	if pa, hit := st.tlb.Lookup(va); hit {
		return pa, now, true
	}
	pa, bits, ptes, n, valid := st.pt.Walk(va)
	t := now
	for _, pte := range ptes[:n] {
		t = st.next.Access(t, pte, 8, dram.Read)
	}
	if !valid {
		st.Faults++
		return 0, t, false
	}
	st.tlb.Insert(va, pa, bits)
	return pa, t, true
}
