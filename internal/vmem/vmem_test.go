package vmem

import (
	"testing"
	"testing/quick"

	"hwgc/internal/mem"
)

func newPT(t *testing.T) (*mem.Physical, *PageTable) {
	t.Helper()
	m := mem.New(256 << 20)
	a := mem.NewArena(m)
	a.Alloc(1<<20, PageSize) // keep PA 0 unused so PPN 0 stays invalid-ish
	return m, NewPageTable(m, a)
}

func TestMapTranslate(t *testing.T) {
	_, pt := newPT(t)
	pt.Map(0x4000_0000, 0x20_0000)
	pa, ok := pt.Translate(0x4000_0123)
	if !ok || pa != 0x20_0123 {
		t.Fatalf("Translate = 0x%x,%v", pa, ok)
	}
	if _, ok := pt.Translate(0x5000_0000); ok {
		t.Fatal("unmapped address translated")
	}
}

func TestMapRange(t *testing.T) {
	_, pt := newPT(t)
	pt.MapRange(0x1000_0000, 0x40_0000, 16*PageSize)
	for off := uint64(0); off < 16*PageSize; off += 512 {
		pa, ok := pt.Translate(0x1000_0000 + off)
		if !ok || pa != 0x40_0000+off {
			t.Fatalf("off 0x%x: pa=0x%x ok=%v", off, pa, ok)
		}
	}
	if _, ok := pt.Translate(0x1000_0000 + 16*PageSize); ok {
		t.Fatal("address past range translated")
	}
}

func TestSuperpage(t *testing.T) {
	_, pt := newPT(t)
	pt.MapSuper(0x4000_0000, 0x80_0000&^((1<<SuperPageBits)-1)+1<<SuperPageBits)
	base := uint64(0x80_0000)&^((1<<SuperPageBits)-1) + 1<<SuperPageBits
	pa, bits, _, n, ok := pt.Walk(0x4000_0000 + 0x12345)
	if !ok || pa != base+0x12345 {
		t.Fatalf("superpage walk: pa=0x%x ok=%v", pa, ok)
	}
	if bits != SuperPageBits {
		t.Fatalf("pageBits = %d, want %d", bits, SuperPageBits)
	}
	if n != 2 {
		t.Fatalf("superpage walk visited %d PTEs, want 2", n)
	}
}

func TestWalkVisitsThreeLevels(t *testing.T) {
	_, pt := newPT(t)
	pt.Map(0x4000_0000, 0x20_0000)
	_, _, _, n, ok := pt.Walk(0x4000_0000)
	if !ok || n != 3 {
		t.Fatalf("walk: ok=%v levels=%d", ok, n)
	}
}

func TestUnmap(t *testing.T) {
	_, pt := newPT(t)
	pt.Map(0x4000_0000, 0x20_0000)
	pt.Unmap(0x4000_0000)
	if _, ok := pt.Translate(0x4000_0000); ok {
		t.Fatal("unmapped page still translates")
	}
}

func TestMapTranslateProperty(t *testing.T) {
	m := mem.New(1 << 30)
	a := mem.NewArena(m)
	a.Alloc(1<<20, PageSize)
	pt := NewPageTable(m, a)
	paArena := mem.NewArena(m) // separate counter just for distinct PAs
	paArena.Alloc(512<<20, PageSize)
	nextPA := uint64(512 << 20)
	mapped := map[uint64]uint64{}
	f := func(vpn uint32) bool {
		va := uint64(vpn%(1<<20)) * PageSize
		if _, seen := mapped[va]; !seen {
			pt.Map(va, nextPA)
			mapped[va] = nextPA
			nextPA += PageSize
		}
		off := uint64(vpn % PageSize)
		pa, ok := pt.Translate(va + off)
		return ok && pa == mapped[va]+off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBLookupInsert(t *testing.T) {
	tlb := NewTLB(4)
	if _, ok := tlb.Lookup(0x1000); ok {
		t.Fatal("cold TLB hit")
	}
	tlb.Insert(0x1234, 0x9234, PageBits)
	pa, ok := tlb.Lookup(0x1567)
	if !ok || pa != 0x9567 {
		t.Fatalf("TLB hit = 0x%x,%v", pa, ok)
	}
}

func TestTLBSuperpageReach(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(0x4000_0000, 0x800_0000, SuperPageBits)
	pa, ok := tlb.Lookup(0x4000_0000 + 1<<20) // 1 MiB into the superpage
	if !ok || pa != 0x800_0000+1<<20 {
		t.Fatalf("superpage TLB hit = 0x%x,%v", pa, ok)
	}
}

func TestTLBLRU(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0x1000, 0xa000, PageBits)
	tlb.Insert(0x2000, 0xb000, PageBits)
	tlb.Lookup(0x1000)                   // touch
	tlb.Insert(0x3000, 0xc000, PageBits) // evicts 0x2000
	if _, ok := tlb.Lookup(0x2000); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := tlb.Lookup(0x1000); !ok {
		t.Fatal("MRU entry evicted")
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(0x1000, 0xa000, PageBits)
	tlb.InvalidatePage(0x1000)
	if _, ok := tlb.Lookup(0x1000); ok {
		t.Fatal("invalidated entry hit")
	}
	tlb.Insert(0x2000, 0xb000, PageBits)
	tlb.Flush()
	if _, ok := tlb.Lookup(0x2000); ok {
		t.Fatal("flushed entry hit")
	}
}
