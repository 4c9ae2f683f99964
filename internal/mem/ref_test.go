package mem

import (
	"testing"

	"hwgc/internal/sim"
)

// refMem is the uncached reference model of a Physical: a flat byte slice
// over the first refPages pages. Snapshots and clones copy it, so no state
// is shared.
type refMem []byte

func newRefMem() refMem { return make(refMem, refPages*PageSize) }

func (r refMem) load64(pa uint64) uint64 {
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(r[pa+i]) << (8 * i)
	}
	return v
}

func (r refMem) store64(pa, v uint64) {
	for i := uint64(0); i < 8; i++ {
		r[pa+i] = byte(v >> (8 * i))
	}
}

func (r refMem) clone() refMem { return append(refMem(nil), r...) }

// refPages spans more than twice the recent-page array, so pages that
// share an array entry evict each other.
const refPages = 2*recentPages + 40

// The random stream keeps at most this many live memories and snapshots,
// replacing a random one once full, so full-content checks stay cheap.
const (
	maxRefMems  = 6
	maxRefSnaps = 4
)

// checkMatches compares every byte of the first refPages pages.
func checkMatches(t *testing.T, step int, name string, m *Physical, r refMem) {
	t.Helper()
	buf := make([]byte, refPages*PageSize)
	m.Read(0, buf)
	for a, got := range buf {
		if want := r[a]; got != want {
			t.Fatalf("step %d: %s byte 0x%x = %#x, reference %#x", step, name, a, got, want)
		}
	}
}

// TestPhysicalMatchesMapReference drives Physicals, their snapshots and
// clones with random word, atomic and byte-range operations and checks
// every result against the uncached map model. Clones of one snapshot and
// the snapshotted memory itself keep writing to pages they all cached
// before the snapshot, so a write that skips the copy-on-write step shows
// up in a sibling or in a later clone.
func TestPhysicalMatchesMapReference(t *testing.T) {
	rng := sim.NewRand(1)
	mems := []*Physical{New(1 << 20)}
	refs := []refMem{newRefMem()}
	var snaps []*Snapshot
	var snapRefs []refMem

	addr := func(align uint64) uint64 {
		return uint64(rng.Intn(refPages*PageSize)) &^ (align - 1)
	}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(mems))
		m, r := mems[i], refs[i]
		switch op := rng.Intn(100); {
		case op < 30:
			pa := addr(8)
			if got, want := m.Load64(pa), r.load64(pa); got != want {
				t.Fatalf("step %d: mem %d Load64(0x%x) = %#x, reference %#x", step, i, pa, got, want)
			}
		case op < 55:
			pa, v := addr(8), rng.Uint64()
			m.Store64(pa, v)
			r.store64(pa, v)
		case op < 65:
			pa, bits := addr(8), rng.Uint64()
			want := r.load64(pa)
			if got := m.FetchOr64(pa, bits); got != want {
				t.Fatalf("step %d: mem %d FetchOr64(0x%x) = %#x, reference %#x", step, i, pa, got, want)
			}
			r.store64(pa, want|bits)
		case op < 70:
			pa, bits := addr(8), rng.Uint64()
			want := r.load64(pa)
			if got := m.FetchAnd64(pa, bits); got != want {
				t.Fatalf("step %d: mem %d FetchAnd64(0x%x) = %#x, reference %#x", step, i, pa, got, want)
			}
			r.store64(pa, want&bits)
		case op < 78:
			pa := addr(1)
			buf := make([]byte, rng.Intn(2*PageSize)+1)
			if end := uint64(refPages * PageSize); pa+uint64(len(buf)) > end {
				buf = buf[:end-pa]
			}
			m.Read(pa, buf)
			for j, got := range buf {
				if want := r[pa+uint64(j)]; got != want {
					t.Fatalf("step %d: mem %d Read byte 0x%x = %#x, reference %#x", step, i, pa+uint64(j), got, want)
				}
			}
		case op < 86:
			pa := addr(1)
			buf := make([]byte, rng.Intn(2*PageSize)+1)
			if end := uint64(refPages * PageSize); pa+uint64(len(buf)) > end {
				buf = buf[:end-pa]
			}
			for j := range buf {
				buf[j] = byte(rng.Uint64())
				r[pa+uint64(j)] = buf[j]
			}
			m.Write(pa, buf)
		case op < 90:
			snap, sr := m.Snapshot(), r.clone()
			if len(snaps) < maxRefSnaps {
				snaps, snapRefs = append(snaps, snap), append(snapRefs, sr)
			} else {
				j := rng.Intn(len(snaps))
				snaps[j], snapRefs[j] = snap, sr
			}
		case op < 96 && len(snaps) > 0:
			j := rng.Intn(len(snaps))
			c, cr := snaps[j].Clone(), snapRefs[j].clone()
			if len(mems) < maxRefMems {
				mems, refs = append(mems, c), append(refs, cr)
			} else {
				k := rng.Intn(len(mems))
				mems[k], refs[k] = c, cr
			}
		}
		if step%4000 == 3999 {
			for j := range mems {
				checkMatches(t, step, "mem", mems[j], refs[j])
			}
			for j := range snaps {
				checkMatches(t, step, "snapshot clone", snaps[j].Clone(), snapRefs[j])
			}
		}
	}
	if len(snaps) < maxRefSnaps || len(mems) < maxRefMems {
		t.Fatalf("stream built %d snapshots and %d memories; want both exercised", len(snaps), len(mems))
	}
}

// TestPhysicalCachedPageCopyOnWrite is the copy-on-write trap in its
// plainest form: a page sits in the recent-page array of the memory and of
// a clone when the snapshot freezes it, and writes through either copy
// the page instead of reaching the snapshot or the sibling.
func TestPhysicalCachedPageCopyOnWrite(t *testing.T) {
	m := New(1 << 20)
	m.Store64(0x40, 1)
	snap := m.Snapshot()
	a, b := snap.Clone(), snap.Clone()
	for _, p := range []*Physical{m, a, b} {
		if v := p.Load64(0x40); v != 1 {
			t.Fatalf("before writes: %#x, want 1", v)
		}
	}
	m.Store64(0x40, 2)
	a.FetchOr64(0x40, 4)
	if v := b.Load64(0x40); v != 1 {
		t.Fatalf("sibling clone sees %#x, want 1", v)
	}
	if v := snap.Clone().Load64(0x40); v != 1 {
		t.Fatalf("snapshot sees %#x, want 1", v)
	}
	if v := a.Load64(0x40); v != 5 {
		t.Fatalf("clone a = %#x, want 5", v)
	}
	if v := m.Load64(0x40); v != 2 {
		t.Fatalf("original = %#x, want 2", v)
	}
	// A second snapshot freezes the page m copied; m must copy again.
	snap2 := m.Snapshot()
	m.Store64(0x40, 3)
	if v := snap2.Clone().Load64(0x40); v != 2 {
		t.Fatalf("second snapshot sees %#x, want 2", v)
	}
}
