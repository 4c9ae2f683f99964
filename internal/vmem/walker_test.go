package vmem

import (
	"testing"

	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/mem"
	"hwgc/internal/sim"
	"hwgc/internal/tilelink"
)

type walkerEnv struct {
	eng *sim.Engine
	m   *mem.Physical
	pt  *PageTable
	w   *Walker
}

func newWalkerEnv(t *testing.T, l2 *TLB) *walkerEnv {
	t.Helper()
	eng := sim.NewEngine()
	m := mem.New(256 << 20)
	a := mem.NewArena(m)
	a.Alloc(1<<20, PageSize)
	pt := NewPageTable(m, a)
	memory := dram.NewDDR3(eng, dram.DDR3_2000(16))
	bus := tilelink.New(eng, memory)
	port := bus.NewPort("ptw", 8)
	w := NewWalker(eng, pt, nil, port, l2)
	return &walkerEnv{eng: eng, m: m, pt: pt, w: w}
}

func TestWalkerResolves(t *testing.T) {
	env := newWalkerEnv(t, nil)
	env.pt.Map(0x4000_0000, 0x20_0000)
	var gotPA uint64
	var gotOK bool
	env.w.Walk(0x4000_0000, func(pa uint64, bits int, ok bool) { gotPA, gotOK = pa, ok })
	env.eng.Run()
	if !gotOK || gotPA != 0x20_0000 {
		t.Fatalf("walk = 0x%x,%v", gotPA, gotOK)
	}
	if env.w.PTEFetches != 3 {
		t.Fatalf("PTE fetches = %d, want 3", env.w.PTEFetches)
	}
}

func TestWalkerFault(t *testing.T) {
	env := newWalkerEnv(t, nil)
	ok := true
	env.w.Walk(0x7000_0000, func(_ uint64, _ int, o bool) { ok = o })
	env.eng.Run()
	if ok {
		t.Fatal("fault reported success")
	}
	if env.w.Faults != 1 {
		t.Fatalf("faults = %d", env.w.Faults)
	}
}

func TestWalkerSerializesWalks(t *testing.T) {
	env := newWalkerEnv(t, nil)
	env.pt.Map(0x4000_0000, 0x20_0000)
	env.pt.Map(0x4000_1000, 0x20_1000)
	var t1, t2 uint64
	env.w.Walk(0x4000_0000, func(uint64, int, bool) { t1 = env.eng.Now() })
	env.w.Walk(0x4000_1000, func(uint64, int, bool) { t2 = env.eng.Now() })
	env.eng.Run()
	if t2 <= t1 {
		t.Fatalf("walks not serialized: t1=%d t2=%d", t1, t2)
	}
	if env.w.Walks != 2 {
		t.Fatalf("walks = %d", env.w.Walks)
	}
}

func TestWalkerL2TLBShortCircuits(t *testing.T) {
	l2 := NewTLB(128)
	env := newWalkerEnv(t, l2)
	env.pt.Map(0x4000_0000, 0x20_0000)
	env.w.Walk(0x4000_0000, func(uint64, int, bool) {})
	env.eng.Run()
	fetchesAfterFirst := env.w.PTEFetches
	env.w.Walk(0x4000_0000, func(uint64, int, bool) {})
	env.eng.Run()
	if env.w.PTEFetches != fetchesAfterFirst {
		t.Fatal("L2 TLB hit still walked the page table")
	}
	if env.w.L2Hits != 1 {
		t.Fatalf("L2 hits = %d", env.w.L2Hits)
	}
}

func TestTranslatorBlockingSemantics(t *testing.T) {
	env := newWalkerEnv(t, nil)
	env.pt.Map(0x4000_0000, 0x20_0000)
	tr := NewTranslator(env.eng, NewTLB(32), env.w)

	resolved := false
	if !tr.Translate(0x4000_0000, func(uint64, bool) { resolved = true }) {
		t.Fatal("first Translate rejected")
	}
	if resolved {
		t.Fatal("miss resolved synchronously")
	}
	// While the walk is outstanding, the translator is busy.
	if tr.Translate(0x4000_0008, func(uint64, bool) {}) {
		t.Fatal("translator accepted a second request while busy")
	}
	env.eng.Run()
	if !resolved {
		t.Fatal("walk never resolved")
	}
	// Now a hit: resolves synchronously.
	hit := false
	var hitPA uint64
	if !tr.Translate(0x4000_0010, func(pa uint64, ok bool) { hit = ok; hitPA = pa }) {
		t.Fatal("post-fill Translate rejected")
	}
	if !hit || hitPA != 0x20_0010 {
		t.Fatalf("TLB hit = 0x%x,%v", hitPA, hit)
	}
}

func TestSyncTranslatorTiming(t *testing.T) {
	m := mem.New(256 << 20)
	a := mem.NewArena(m)
	a.Alloc(1<<20, PageSize)
	pt := NewPageTable(m, a)
	pt.Map(0x4000_0000, 0x20_0000)
	sm := dram.NewSync(dram.DDR3_2000(16))
	st := NewSyncTranslator(NewTLB(32), pt, sm)

	pa, fin, ok := st.Translate(0, 0x4000_0040)
	if !ok || pa != 0x20_0040 {
		t.Fatalf("miss translate = 0x%x,%v", pa, ok)
	}
	if fin == 0 {
		t.Fatal("page walk took zero time")
	}
	pa2, fin2, ok2 := st.Translate(fin, 0x4000_0080)
	if !ok2 || pa2 != 0x20_0080 {
		t.Fatalf("hit translate = 0x%x,%v", pa2, ok2)
	}
	if fin2 != fin {
		t.Fatalf("TLB hit advanced time: %d -> %d", fin, fin2)
	}
	if _, _, ok3 := st.Translate(fin2, 0x9000_0000); ok3 {
		t.Fatal("fault translated")
	}
	if st.Faults != 1 {
		t.Fatalf("faults = %d", st.Faults)
	}
}

// TestTranslatorZeroAllocs guards the translation path the GC unit takes
// for every TLB miss: once the walker's rings and the PTW cache are warm,
// an L2-TLB hit, a full three-level walk through the PTW cache, and a walk
// whose PTE read is refused by a full cache queue and retried must not
// allocate.
func TestTranslatorZeroAllocs(t *testing.T) {
	const pageA, pageB = 0x4000_0000, 0x4000_1000
	setup := func(l1, l2 int, inputQ int) (*sim.Engine, *Translator, *Walker, *cache.Event) {
		eng := sim.NewEngine()
		m := mem.New(256 << 20)
		a := mem.NewArena(m)
		a.Alloc(1<<20, PageSize)
		pt := NewPageTable(m, a)
		pt.Map(pageA, 0x20_0000)
		pt.Map(pageB, 0x20_1000)
		bus := tilelink.New(eng, dram.NewDDR3(eng, dram.DDR3_2000(16)))
		c := cache.NewEvent(eng, 8<<10, 4, 1, inputQ, 4, bus.NewPort("ptw", 8))
		var l2TLB *TLB
		if l2 > 0 {
			l2TLB = NewTLB(l2)
		}
		w := NewWalker(eng, pt, c, nil, l2TLB)
		return eng, NewTranslator(eng, NewTLB(l1), w), w, c
	}
	resolved, faults := 0, 0
	done := func(pa uint64, ok bool) {
		if !ok {
			faults++
		}
		resolved++
	}
	translate := func(eng *sim.Engine, tr *Translator, va uint64) {
		tr.Translate(va, done)
		eng.Run()
	}

	t.Run("l2-hit", func(t *testing.T) {
		// A one-entry L1 TLB alternating two pages misses every time;
		// the L2 TLB holds both after the warm-up walks.
		eng, tr, w, _ := setup(1, 128, 8)
		run := func() {
			translate(eng, tr, pageA)
			translate(eng, tr, pageB)
		}
		run()
		walks, hits := w.Walks, w.L2Hits
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("%.1f allocs/run, want 0", allocs)
		}
		if w.Walks != walks || w.L2Hits-hits != 2*101 {
			t.Fatalf("walks %d -> %d, L2 hits %d -> %d; want L2 hits only", walks, w.Walks, hits, w.L2Hits)
		}
	})

	t.Run("walk", func(t *testing.T) {
		eng, tr, w, _ := setup(0, 0, 8)
		run := func() { translate(eng, tr, pageA) }
		run()
		walks, fetches := w.Walks, w.PTEFetches
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("%.1f allocs/run, want 0", allocs)
		}
		if w.Walks-walks != 101 || w.PTEFetches-fetches != 3*101 {
			t.Fatalf("walks +%d, PTE fetches +%d; want 101 three-level walks",
				w.Walks-walks, w.PTEFetches-fetches)
		}
	})

	t.Run("retry", func(t *testing.T) {
		// A one-entry cache queue held by another request refuses the
		// walk's first PTE read, so the walker retries a cycle later.
		eng, tr, w, c := setup(0, 0, 1)
		run := func() {
			if !c.Access(cache.Access{Addr: 0x8000, Size: 8, Kind: dram.Read, Source: "other"}) || c.Free() != 0 {
				t.Fatal("could not fill the cache queue")
			}
			translate(eng, tr, pageA)
		}
		run()
		walks, fetches := w.Walks, w.PTEFetches
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("%.1f allocs/run, want 0", allocs)
		}
		if w.Walks-walks != 101 || w.PTEFetches-fetches != 3*101 {
			t.Fatalf("walks +%d, PTE fetches +%d; want 101 three-level walks",
				w.Walks-walks, w.PTEFetches-fetches)
		}
	})
	// 1 + 101 runs per subtest: two translations each in l2-hit, one in
	// walk and retry.
	if resolved != 4*102 || faults != 0 {
		t.Fatalf("%d translations resolved, %d faulted; want %d and 0", resolved, faults, 4*102)
	}
}
