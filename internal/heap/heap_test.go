package heap

import (
	"testing"
	"testing/quick"

	"hwgc/internal/mem"
	"hwgc/internal/vmem"
)

func newHeap(t *testing.T, cfg Config) *Heap {
	t.Helper()
	m := mem.New(512 << 20)
	arena := mem.NewArena(m)
	arena.Alloc(1<<20, 4096) // keep PA 0 out of the way
	pt := vmem.NewPageTable(m, arena)
	return New(m, arena, pt, cfg)
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MarkSweepBytes = 2 << 20
	cfg.BumpBytes = 1 << 20
	return cfg
}

func TestStatusEncoding(t *testing.T) {
	t.Parallel()
	w := EncodeStatus(5, true, false)
	if !IsObject(w) || NumRefs(w) != 5 || !IsArray(w) || MarkOf(w) {
		t.Fatalf("status = %x", w)
	}
	w2 := EncodeStatus(0, false, true)
	if !MarkOf(w2) || NumRefs(w2) != 0 || IsArray(w2) {
		t.Fatalf("status2 = %x", w2)
	}
}

func TestStatusRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(n uint16, array, mark bool) bool {
		w := EncodeStatus(int(n), array, mark)
		return IsObject(w) && NumRefs(w) == int(n) && IsArray(w) == array && MarkOf(w) == mark
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAndAccess(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	a := h.Alloc(2, 16, false)
	b := h.Alloc(0, 8, false)
	if a == 0 || b == 0 {
		t.Fatal("allocation failed")
	}
	if h.NumRefsOf(a) != 2 || h.NumRefsOf(b) != 0 {
		t.Fatalf("nrefs = %d/%d", h.NumRefsOf(a), h.NumRefsOf(b))
	}
	if h.RefAt(a, 0) != 0 || h.RefAt(a, 1) != 0 {
		t.Fatal("fresh refs not null")
	}
	h.SetRefAt(a, 0, b)
	if h.RefAt(a, 0) != b {
		t.Fatalf("ref readback = %x, want %x", h.RefAt(a, 0), b)
	}
}

func TestAllocDistinctCells(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		r := h.Alloc(1, 8, false)
		if r == 0 {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[r] {
			t.Fatalf("cell %x handed out twice", r)
		}
		seen[r] = true
	}
}

func TestSizeClassRouting(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	small := h.Alloc(1, 0, false) // 16 bytes -> MarkSweep
	if small < VAHeapBase || small >= VABumpBase {
		t.Fatalf("small object outside MarkSweep space: %x", small)
	}
	big := h.Alloc(0, 16<<10, false) // > max class -> bump
	if big < VABumpBase || big >= VAAuxBase {
		t.Fatalf("large object outside bump space: %x", big)
	}
	if len(h.Bump.Objects()) != 1 {
		t.Fatalf("bump objects = %d", len(h.Bump.Objects()))
	}
}

func TestMarkSenseFlip(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	r := h.Alloc(0, 8, false)
	if !h.IsMarked(r) {
		t.Fatal("fresh object should read as live/marked in current epoch")
	}
	h.FlipSense()
	if h.IsMarked(r) {
		t.Fatal("object still marked after sense flip")
	}
	old := h.MarkAMO(h.StatusAddr(r))
	if h.IsMarkedStatus(old) {
		t.Fatal("AMO returned marked for first mark")
	}
	if !h.IsMarked(r) {
		t.Fatal("object unmarked after AMO")
	}
	old2 := h.MarkAMO(h.StatusAddr(r))
	if !h.IsMarkedStatus(old2) {
		t.Fatal("second AMO did not observe the first")
	}
}

func TestMarkAMOPreservesRefCount(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	r := h.Alloc(7, 0, false)
	h.FlipSense()
	old := h.MarkAMO(h.StatusAddr(r))
	if NumRefs(old) != 7 {
		t.Fatalf("AMO old status #refs = %d, want 7", NumRefs(old))
	}
	if h.NumRefsOf(r) != 7 {
		t.Fatal("marking corrupted #refs")
	}
}

func TestExhaustionReturnsZero(t *testing.T) {
	t.Parallel()
	cfg := smallConfig()
	cfg.MarkSweepBytes = 128 << 10
	cfg.BlockBytes = 64 << 10
	h := newHeap(t, cfg)
	n := 0
	for {
		if h.Alloc(0, 2000, false) == 0 {
			break
		}
		n++
		if n > 100000 {
			t.Fatal("never exhausted")
		}
	}
	if n == 0 {
		t.Fatal("no allocations before exhaustion")
	}
}

func TestFreeListReuseAfterSync(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	r := h.Alloc(1, 8, false)
	// Simulate a sweep freeing this cell: write a free-list entry and
	// update the descriptor, then resync.
	b := h.MS.Block(0)
	h.Store(r, 0) // next = 0, tag bit clear
	h.Store(h.MS.EntryVA(b.Index)+16, r)
	h.MS.SyncFromMemory()
	r2 := h.Alloc(1, 8, false)
	if r2 != r {
		t.Fatalf("freed cell not reused: got %x, want %x", r2, r)
	}
}

func TestLiveObjectsEnumeration(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	want := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		want[h.Alloc(1, 8, false)] = true
	}
	got := h.MS.LiveObjects()
	if len(got) != 50 {
		t.Fatalf("LiveObjects = %d, want 50", len(got))
	}
	for _, r := range got {
		if !want[r] {
			t.Fatalf("unexpected object %x", r)
		}
	}
}

func TestFreeCellsAccounting(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	h.Alloc(1, 8, false)
	b := h.MS.Block(0)
	if free := h.MS.FreeCells(); free != b.Cells-1 {
		t.Fatalf("free cells = %d, want %d", free, b.Cells-1)
	}
}

func TestRefSpanContiguous(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	r := h.Alloc(4, 0, false)
	va, n := h.RefSpan(r, 4)
	if va != r+WordSize || n != 32 {
		t.Fatalf("RefSpan = %x,%d", va, n)
	}
	for i := 0; i < 4; i++ {
		if h.RefSlotAddr(r, i) != va+uint64(i*WordSize) {
			t.Fatal("ref slots not contiguous")
		}
	}
}

func TestTIBLayout(t *testing.T) {
	t.Parallel()
	cfg := smallConfig()
	cfg.Layout = TIBLayout
	h := newHeap(t, cfg)
	a := h.Alloc(3, 24, false)
	bTgt := h.Alloc(0, 8, false)
	if !IsObject(h.Status(a)) {
		t.Fatal("TIB-layout status word lost tag bit")
	}
	if h.NumRefsOf(a) != 3 {
		t.Fatalf("nrefs = %d", h.NumRefsOf(a))
	}
	h.SetRefAt(a, 1, bTgt)
	if h.RefAt(a, 1) != bTgt {
		t.Fatal("TIB-layout ref readback failed")
	}
	// TIB pointer word must have a clear tag bit so cell scans can
	// distinguish it (paper Figure 11).
	if IsObject(h.Load(a)) {
		t.Fatal("TIB pointer word has tag bit set")
	}
	// Objects of the same shape share a TIB.
	c := h.Alloc(3, 24, false)
	if h.TIBOf(a) != h.TIBOf(c) {
		t.Fatal("same-shape objects got different TIBs")
	}
	// Ref offsets are interspersed: not contiguous from the header.
	if h.RefSlotAddr(a, 1)-h.RefSlotAddr(a, 0) == WordSize {
		t.Fatal("TIB layout refs unexpectedly contiguous")
	}
}

func TestPATranslationMatchesPageTable(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	r := h.Alloc(1, 8, false)
	pa1 := h.PA(r)
	pa2, ok := h.PT.Translate(r)
	if !ok || pa1 != pa2 {
		t.Fatalf("flat map (%x) disagrees with page table (%x, ok=%v)", pa1, pa2, ok)
	}
}

func TestSuperpageMapping(t *testing.T) {
	t.Parallel()
	cfg := smallConfig()
	cfg.Superpages = true
	h := newHeap(t, cfg)
	r := h.Alloc(1, 8, false)
	pa, bits, _, _, ok := h.PT.Walk(r)
	if !ok || bits != vmem.SuperPageBits {
		t.Fatalf("superpage walk: ok=%v bits=%d", ok, bits)
	}
	if pa != h.PA(r) {
		t.Fatal("superpage translation mismatch")
	}
}

func TestCellBytes(t *testing.T) {
	t.Parallel()
	h := newHeap(t, smallConfig())
	if got := h.CellBytes(2, 12); got != 8+16+16 {
		t.Fatalf("CellBytes = %d", got)
	}
	cfg := smallConfig()
	cfg.Layout = TIBLayout
	h2 := newHeap(t, cfg)
	if got := h2.CellBytes(2, 12); got != 16+16+16 {
		t.Fatalf("TIB CellBytes = %d", got)
	}
}
