// hwgc-serve exposes the experiment fleet as a long-running simulation
// service: an HTTP/JSON API over a bounded job queue drained by a worker
// pool, with every result stored in the content-addressed cache so
// repeated cells are served without re-simulating. See docs/SERVICE.md.
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
// Cluster mode turns the daemon into a coordinator: jobs are dispatched to
// registered workers (cmd/hwgc-worker) through per-job leases instead of
// running in-process, with the protocol endpoints mounted under
// /cluster/v1/ on the same listener (see docs/SERVICE.md §5):
//
//	hwgc-serve -cluster                          # coordinator; remote workers only
//	hwgc-serve -cluster -cluster-local-workers 2 # plus 2 in-process loopback workers
//	hwgc-serve -cluster -lease-ttl 2m            # slow cells need longer leases
//	hwgc-serve -cluster -trace-spans 0           # disable distributed span recording
//
// In cluster mode every job carries a wall-clock trace: GET /cluster/v1/trace
// exports the span buffer plus the control-plane flight recorder, and
// GET /cluster/v1/metrics serves federated cluster-wide Prometheus series
// (see docs/OBSERVABILITY.md "Distributed tracing"). GET /healthz and
// GET /readyz are liveness/readiness probes (-log-format {text,json} picks
// the structured log encoding).
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight jobs finish
// (bounded by -drain-timeout, then cancelled; in cluster mode leased jobs
// complete or re-queue before the listener closes), new submissions get
// 503, and the process exits 0.
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
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/ledger"
	"hwgc/internal/resultcache"
	"hwgc/internal/service"
	"hwgc/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	queue := flag.Int("queue", 64, "max queued jobs; submissions past this get 503")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline (0 = none)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory result cache entries (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist cached results under this directory")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long in-flight jobs may keep running after SIGINT/SIGTERM before being cancelled")
	ledgerDir := flag.String("ledger", "", "append one run manifest per finished job under this directory")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	clusterOn := flag.Bool("cluster", false,
		"coordinator mode: dispatch jobs to cluster workers (hwgc-worker) via /cluster/v1/ leases")
	localWorkers := flag.Int("cluster-local-workers", 0,
		"with -cluster: also run this many in-process loopback workers")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second,
		"with -cluster: lease validity window; expired leases re-queue the job")
	retain := flag.Int("retain", 0,
		"finished jobs kept before eviction (later lookups get 410; 0 = default 4096, negative = unlimited)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	traceSpans := flag.Int("trace-spans", telemetry.DefaultMaxSpans,
		"with -cluster: wall-span recorder capacity for distributed tracing (0 disables span recording)")
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

	// The hub carries service, cache, and cluster metrics for /v1/metrics
	// and /metrics. Simulations are not instrumented: nothing would read it.
	hub := telemetry.NewHub(0)

	svcCfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		Cache:          cache,
		Hub:            hub,
		Ledger:         store,
		RetainFinished: *retain,
	}

	// Cluster mode: a coordinator owns dispatch (the scheduler's worker
	// pool blocks on remote completion), its protocol endpoints mount on
	// the same listener, and its per-worker series append to /metrics.
	var coord *cluster.Coordinator
	var pool *cluster.LoopbackPool
	if *clusterOn {
		var spans *telemetry.WallSpans
		if *traceSpans > 0 {
			spans = &telemetry.WallSpans{MaxSpans: *traceSpans}
		}
		coord = cluster.NewCoordinator(cluster.Config{
			LeaseTTL: *leaseTTL,
			Cache:    cache,
			Hub:      hub,
			Spans:    spans,
			Log:      logger,
		})
		// The service deliberately does not import the cluster package; the
		// two outcome structs are field-identical, so the adapter is a
		// conversion.
		svcCfg.Dispatch = func(ctx context.Context, experiment string, o experiments.Options) (service.DispatchResult, error) {
			out, err := coord.Dispatch(ctx, experiment, o)
			return service.DispatchResult(out), err
		}
		svcCfg.PromAppend = coord.WritePrometheus
		if *localWorkers > 0 {
			pool, err = cluster.StartLoopbackWorkers(coord, *localWorkers, cluster.WorkerConfig{
				Name: "local",
				Log:  logger,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	sched := service.New(svcCfg)
	d := &service.Daemon{
		Addr:         *addr,
		Scheduler:    sched,
		Hub:          hub,
		EnablePprof:  *pprofOn,
		DrainTimeout: *drainTimeout,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	}
	if coord != nil {
		d.ExtraMounts = map[string]http.Handler{"/cluster/v1/": cluster.NewHTTPHandler(coord)}
		d.OnDrain = func(ctx context.Context) {
			_ = coord.Drain(ctx)
			if pool != nil {
				_ = pool.Stop()
			}
			coord.Close()
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
