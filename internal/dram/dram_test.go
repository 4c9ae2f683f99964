package dram

import (
	"testing"

	"hwgc/internal/sim"
)

func cfg() Config { return DDR3_2000(16) }

func TestBankRowMapping(t *testing.T) {
	t.Parallel()
	tm := newTiming(cfg())
	// row:bank:column with XOR hashing — addresses within one 8 KB
	// row-run stay in one bank and row...
	b0, r0 := tm.bankRow(0)
	b1, r1 := tm.bankRow(8191)
	if b0 != b1 || r0 != r1 {
		t.Fatalf("same row split: %d/%d vs %d/%d", b0, r0, b1, r1)
	}
	// ...the next row-run lands in a different bank, same row index...
	b2, r2 := tm.bankRow(8192)
	if b2 == b0 || r2 != r0 {
		t.Fatalf("adjacent row-run mapping: bank %d row %d", b2, r2)
	}
	// ...and a banks*rowBytes stride advances the row.
	_, r3 := tm.bankRow(8 * 8192)
	if r3 != r0+1 {
		t.Fatalf("row stride mapping: row %d, want %d", r3, r0+1)
	}
	// The XOR hash rotates bank order between rows: the sequence of
	// banks in row 1 differs from row 0 at the same offsets.
	bA, _ := tm.bankRow(0)
	bB, _ := tm.bankRow(8 * 8192)
	if bA == bB {
		t.Fatalf("XOR hash did not permute banks across rows")
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	t.Parallel()
	tm := newTiming(cfg())
	// First access opens the row: TRCD + TCAS.
	f1 := tm.access(0, 0, 64, Read)
	// Second access, same row-run: TCAS only (plus bus).
	f2 := tm.access(f1, 4096, 64, Read) // bank 0 row 0
	hitLat := f2 - f1
	// Conflict: same bank (9*8192 maps back to bank 0 under the XOR
	// hash), different row.
	b0, r0 := tm.bankRow(0)
	bc, rc := tm.bankRow(9 * 8192)
	if b0 != bc || r0 == rc {
		t.Fatalf("test addresses no longer conflict: %d/%d vs %d/%d", b0, r0, bc, rc)
	}
	f3 := tm.access(f2, 9*8192, 64, Read)
	confLat := f3 - f2
	if hitLat >= confLat {
		t.Fatalf("row hit latency %d should be < conflict latency %d", hitLat, confLat)
	}
	if tm.RowHits != 1 || tm.RowMisses != 1 || tm.RowConflicts != 1 {
		t.Fatalf("hit/miss/conflict = %d/%d/%d", tm.RowHits, tm.RowMisses, tm.RowConflicts)
	}
}

func TestClosedPagePolicy(t *testing.T) {
	t.Parallel()
	c := cfg()
	c.ClosedPage = true
	tm := newTiming(c)
	tm.access(0, 0, 64, Read)
	tm.access(100, 0, 64, Read) // same address: still a miss under closed-page
	if tm.RowHits != 0 || tm.RowMisses != 2 {
		t.Fatalf("closed page: hits=%d misses=%d", tm.RowHits, tm.RowMisses)
	}
}

func TestBusSerializesBursts(t *testing.T) {
	t.Parallel()
	tm := newTiming(cfg())
	// Two accesses to different banks issued at the same cycle: the data
	// beats must not overlap on the shared bus.
	f1 := tm.access(0, 0, 64, Read)
	f2 := tm.access(0, 64, 64, Read)
	if f2 < f1+4 { // 64B / 16Bpc = 4 bus cycles
		t.Fatalf("bus overlap: f1=%d f2=%d", f1, f2)
	}
}

func TestAMODoubleOccupancy(t *testing.T) {
	t.Parallel()
	tm := newTiming(cfg())
	fRead := tm.access(0, 0, 8, Read)
	tm2 := newTiming(cfg())
	fAMO := tm2.access(0, 0, 8, AMO)
	if fAMO <= fRead {
		t.Fatalf("AMO (%d) should take longer than read (%d)", fAMO, fRead)
	}
}

func TestDDR3EventCompletion(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	d := NewDDR3(eng, cfg())
	var finishes []uint64
	for i := 0; i < 4; i++ {
		addr := uint64(i) * 64
		if !d.Enqueue(Request{Addr: addr, Size: 64, Kind: Read, Done: func(f uint64) {
			finishes = append(finishes, f)
		}}) {
			t.Fatal("Enqueue failed below queue depth")
		}
	}
	eng.Run()
	if len(finishes) != 4 {
		t.Fatalf("completions = %d, want 4", len(finishes))
	}
	for i := 1; i < len(finishes); i++ {
		if finishes[i] <= finishes[i-1] {
			t.Fatalf("non-monotonic completions: %v", finishes)
		}
	}
	if s := d.Stats(); s.Accesses != 4 || s.Bytes != 256 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDDR3QueueBackpressure(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	c := cfg()
	c.QueueDepth = 2
	d := NewDDR3(eng, c)
	ok1 := d.Enqueue(Request{Size: 64})
	ok2 := d.Enqueue(Request{Size: 64})
	ok3 := d.Enqueue(Request{Size: 64})
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("backpressure: %v %v %v", ok1, ok2, ok3)
	}
	spaced := false
	d.SetOnSpace(func() { spaced = true })
	eng.Run()
	if !spaced {
		t.Fatal("OnSpace never fired")
	}
}

func TestFRFCFSBeatsFIFOOnRowLocality(t *testing.T) {
	t.Parallel()
	// Interleave two streams: one hammers a single row, one strides rows
	// in the same bank. FR-FCFS should finish sooner overall.
	run := func(policy Policy) uint64 {
		eng := sim.NewEngine()
		c := cfg()
		c.Policy = policy
		d := NewDDR3(eng, c)
		var last uint64
		done := func(f uint64) {
			if f > last {
				last = f
			}
		}
		for i := 0; i < 8; i++ {
			d.Enqueue(Request{Addr: uint64(i%4) * 64 * 8, Size: 64, Kind: Read, Done: done})   // row 0, bank 0
			d.Enqueue(Request{Addr: uint64(9*(i+1)) * 8192, Size: 64, Kind: Read, Done: done}) // conflict stream, bank 0
		}
		eng.Run()
		return last
	}
	fr := run(FRFCFS)
	fifo := run(FIFO)
	if fr > fifo {
		t.Fatalf("FR-FCFS (%d) should not be slower than FIFO (%d)", fr, fifo)
	}
}

func TestInflightLimitThrottles(t *testing.T) {
	t.Parallel()
	run := func(maxReads int) uint64 {
		eng := sim.NewEngine()
		c := DDR3_2000(maxReads)
		c.QueueDepth = 0 // unbounded queue so all requests enqueue
		d := NewDDR3(eng, c)
		var last uint64
		for i := 0; i < 64; i++ {
			d.Enqueue(Request{Addr: uint64(i) * 64, Size: 64, Kind: Read, Done: func(f uint64) {
				if f > last {
					last = f
				}
			}})
		}
		eng.Run()
		return last
	}
	t16 := run(16)
	t1 := run(1)
	if t16 > t1 {
		t.Fatalf("16 in-flight (%d) should not be slower than 1 (%d)", t16, t1)
	}
}

func TestPipeBandwidthLimit(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	p := NewPipe(eng, 1, 8)
	var last uint64
	n := 100
	for i := 0; i < n; i++ {
		p.Enqueue(Request{Addr: uint64(i) * 64, Size: 64, Kind: Read, Done: func(f uint64) {
			if f > last {
				last = f
			}
		}})
	}
	eng.Run()
	// 100 x 64B at 8 B/cycle = 800 bus cycles minimum.
	if last < 800 {
		t.Fatalf("pipe finished at %d, bandwidth limit requires >= 800", last)
	}
	if last > 820 {
		t.Fatalf("pipe finished at %d, expected close to 801", last)
	}
}

func TestSyncMatchesStandaloneTiming(t *testing.T) {
	t.Parallel()
	s := NewSync(cfg())
	f1 := s.Access(0, 0, 64, Read)
	if f1 != 14+14+4 { // TRCD + TCAS + 4-cycle burst
		t.Fatalf("first access completes at %d, want 32", f1)
	}
	f2 := s.Access(f1, 64*8, 64, Read) // row hit
	if f2-f1 != 14+4 {
		t.Fatalf("row hit latency = %d, want 18", f2-f1)
	}
}

func TestSyncPipe(t *testing.T) {
	t.Parallel()
	p := NewSyncPipe(1, 8)
	f := p.Access(0, 0, 8, Read)
	if f != 2 { // 1 bus cycle + 1 latency
		t.Fatalf("pipe access = %d, want 2", f)
	}
	f2 := p.Access(0, 8, 8, Read)
	if f2 != 3 { // bus serialized
		t.Fatalf("second pipe access = %d, want 3", f2)
	}
}

// TestCompletionQueueStaysAtPeakInFlight streams requests through each
// memory model with a fixed number in flight, so the completion queue never
// drains. Once a warm-up stream has sized it to that peak, a longer stream
// must not grow it again: it allocates nothing.
func TestCompletionQueueStaysAtPeakInFlight(t *testing.T) {
	const inFlight = 8
	for _, tc := range []struct {
		name string
		mem  func(*sim.Engine) Memory
	}{
		{"ddr3", func(eng *sim.Engine) Memory { return NewDDR3(eng, cfg()) }},
		{"pipe", func(eng *sim.Engine) Memory { return NewPipe(eng, 1, 8) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			mem := tc.mem(eng)
			left := 0
			var done func(uint64)
			issue := func(addr uint64) {
				if !mem.Enqueue(Request{Addr: addr, Size: 64, Kind: Read, Done: done}) {
					t.Fatal("enqueue refused below the queue depth")
				}
			}
			done = func(f uint64) {
				if left > 0 {
					left--
					issue(f % (1 << 20) &^ 63)
				}
			}
			stream := func(n int) {
				left = n
				for i := 0; i < inFlight; i++ {
					issue(uint64(i) * 64)
				}
				eng.Run()
			}
			// AllocsPerRun streams once unmeasured, then measures a stream ten
			// times longer than any before it.
			n := 1000
			stream(n)
			if allocs := testing.AllocsPerRun(1, func() { n *= 10; stream(n) }); allocs != 0 {
				t.Fatalf("a %d-request stream allocated %.0f times: the completion queue grew past its peak", n, allocs)
			}
		})
	}
}
