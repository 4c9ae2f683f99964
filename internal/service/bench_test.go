package service

// BenchmarkServiceCacheHit measures the service's hit path end to end in
// process: Submit (the cell's content address), the coordinator's cache
// lookup, and the job's finish into the retained history. It is what every
// repeated hwgc-serve request pays beside HTTP, with span recording on as
// in the daemon's default; scripts/allocguard.sh holds its allocs/op to
// budget.

import (
	"context"
	"testing"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

func BenchmarkServiceCacheHit(b *testing.B) {
	cache, err := resultcache.New(0, "")
	if err != nil {
		b.Fatal(err)
	}
	coord := cluster.NewCoordinator(cluster.Config{Cache: cache, Spans: telemetry.NewWallSpans(), RetainFinished: 64})
	s := New(Config{Workers: 1, Coordinator: coord})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	o := experiments.Options{GCs: 1, Seed: 42, Quick: true, Shrink: 8}
	submit := func() View {
		job, err := s.Submit("table1", o)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		v, _ := s.View(job.ID())
		return v
	}
	if v := submit(); v.State != StateSucceeded {
		b.Fatalf("priming run = %s (%s)", v.State, v.Error)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := s.Submit("table1", o)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
	}
	b.StopTimer()
	if v := submit(); !v.CacheHit {
		b.Fatal("benchmark cell missed the cache")
	}
}
