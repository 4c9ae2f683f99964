package telemetry

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func TestWallSpansNilSafe(t *testing.T) {
	var r *WallSpans
	r.Add(Span{Name: "x"})
	if r.NewTraceID() != "" {
		t.Error("nil recorder minted an ID; disabled tracing must propagate no context")
	}
	if r.Snapshot() != nil || r.Dropped() != 0 || r.Len() != 0 {
		t.Error("nil recorder reported recorded state")
	}
}

func TestWallSpansBoundedKeepsEarliest(t *testing.T) {
	r := &WallSpans{MaxSpans: 3}
	for i := 1; i <= 5; i++ {
		r.Add(Span{SpanID: fmt.Sprintf("s-%06d", i)})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, s := range got {
		want := []string{"s-000001", "s-000002", "s-000003"}[i]
		if s.SpanID != want {
			t.Errorf("span[%d] = %q, want %q (earliest kept)", i, s.SpanID, want)
		}
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
}

func TestWallSpansIDsAreUnique(t *testing.T) {
	r := NewWallSpans()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := r.NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestSpanBetweenClampsNegativeDuration(t *testing.T) {
	now := time.Now()
	s := SpanBetween("t", "s", "", "u", "n", now, now.Add(-time.Second))
	if s.DurUS != 0 {
		t.Fatalf("dur = %d, want 0 (clock went backwards)", s.DurUS)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{
		TraceID: "t-000001", SpanID: "s-000002", Parent: "s-000001",
		Name: "attempt", Unit: "coordinator",
		StartUS: 1700000000000000, DurUS: 1234,
		Attrs: map[string]string{"worker": "lab-2", "attempt": "2"},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Span
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.Parent != in.Parent ||
		out.StartUS != in.StartUS || out.Attrs["worker"] != "lab-2" {
		t.Fatalf("round trip mangled span: %+v", out)
	}
	if out.End().Sub(out.Start()) != 1234*time.Microsecond {
		t.Fatalf("End-Start = %v, want 1.234ms", out.End().Sub(out.Start()))
	}
}

// TestWallSpanOffZeroAllocs proves the disabled span path allocates
// nothing: a nil recorder must cost as little as an untraced call.
func TestWallSpanOffZeroAllocs(t *testing.T) {
	var r *WallSpans
	allocs := testing.AllocsPerRun(1000, func() {
		r.Add(Span{Name: "attempt"})
		_ = r.NewTraceID()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkWallSpanOff is the allocguard sentinel for the disabled path
// (scripts/alloc_budget.txt pins it at 0 allocs/op).
func BenchmarkWallSpanOff(b *testing.B) {
	var r *WallSpans
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(Span{Name: "attempt"})
	}
}
