// hwgc-serve exposes the experiment fleet as a long-running simulation
// service: an HTTP/JSON API over a cluster coordinator that admits jobs
// into a bounded queue, serves repeated cells from the content-addressed
// result cache, and leases fresh ones to workers. See docs/SERVICE.md.
//
// Usage:
//
//	hwgc-serve                         # listen on :8077
//	hwgc-serve -addr :9000 -workers 4
//	hwgc-serve -cache-dir /var/cache/hwgc   # persistent result cache
//	hwgc-serve -job-timeout 10m        # cancel cells that run too long
//	hwgc-serve -ledger runs/           # append a run manifest per job
//	hwgc-serve -pprof                  # expose /debug/pprof/
//
// Cells simulate on -workers in-process workers (default: GOMAXPROCS).
// The coordinator's protocol endpoints are always mounted under
// /cluster/v1/ on the same listener, so remote workers (cmd/hwgc-worker)
// can join any daemon and take leases too (see docs/SERVICE.md §5):
//
//	hwgc-serve -workers 0              # remote workers only
//	hwgc-serve -lease-ttl 2m           # slow cells need longer leases
//	hwgc-serve -trace-spans 0          # disable distributed span recording
//
// Every job carries a wall-clock trace: GET /cluster/v1/trace exports the
// span buffer plus the control-plane flight recorder, and
// GET /cluster/v1/metrics serves federated cluster-wide Prometheus series
// (see docs/OBSERVABILITY.md "Distributed tracing"). GET /healthz and
// GET /readyz are liveness/readiness probes (-log-format {text,json} picks
// the structured log encoding).
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight jobs finish
// (bounded by -drain-timeout, then cancelled; leased jobs complete before
// the listener closes), new submissions get 503, and the process exits 0.
//
//	curl -s localhost:8077/v1/experiments
//	curl -s -X POST localhost:8077/v1/jobs \
//	    -d '{"experiment":"fig15","options":{"Quick":true},"wait":true}'
//	curl -s localhost:8077/v1/jobs/job-000001
//	curl -s localhost:8077/v1/jobs/job-000001/progress
//	curl -s localhost:8077/v1/jobs/job-000001/report > job.html
//	curl -s localhost:8077/v1/metrics
//	curl -s localhost:8077/metrics     # Prometheus text format
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/ledger"
	"hwgc/internal/resultcache"
	"hwgc/internal/service"
	"hwgc/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"in-process workers simulating cells (0 = remote hwgc-worker processes only)")
	queue := flag.Int("queue", 64, "max jobs waiting for a worker; cold submissions past this get 503")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline from its first lease (0 = none)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory result cache entries (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist cached results under this directory")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long in-flight jobs may keep running after SIGINT/SIGTERM before being cancelled")
	ledgerDir := flag.String("ledger", "", "append one run manifest per finished job under this directory")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second,
		"lease validity window; expired leases re-queue the job")
	retain := flag.Int("retain", 0,
		"finished jobs kept before eviction (later lookups get 410; 0 = default 4096, negative = unlimited)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	traceSpans := flag.Int("trace-spans", telemetry.DefaultMaxSpans,
		"wall-span recorder capacity for distributed tracing (0 disables span recording)")
	flag.Parse()

	logger, err := telemetry.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwgc-serve:", err)
		os.Exit(2)
	}

	cache, err := resultcache.New(*cacheEntries, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var store *ledger.Store
	if *ledgerDir != "" {
		store, err = ledger.Open(*ledgerDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var spans *telemetry.WallSpans
	if *traceSpans > 0 {
		spans = &telemetry.WallSpans{MaxSpans: *traceSpans}
	}
	// The coordinator's hub carries the cluster and cache metrics for
	// /v1/metrics and /metrics. Simulations are not instrumented: nothing
	// would read it.
	coord := cluster.NewCoordinator(cluster.Config{
		LeaseTTL:       *leaseTTL,
		Cache:          cache,
		Spans:          spans,
		Log:            logger,
		MaxPending:     *queue,
		RetainFinished: *retain,
		JobTimeout:     *jobTimeout,
	})

	// The scheduler spells "no in-process workers" as a negative count.
	local := *workers
	if local == 0 {
		local = -1
	}

	d := &service.Daemon{
		Addr: *addr,
		Scheduler: service.New(service.Config{
			Workers:     local,
			Coordinator: coord,
			Ledger:      store,
		}),
		EnablePprof:  *pprofOn,
		DrainTimeout: *drainTimeout,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
