// hwgc-worker is the cluster compute daemon: it registers with any
// hwgc-serve daemon (its coordinator), polls for per-job leases, runs the
// leased experiment cells locally, and reports results back over the
// versioned HTTP/JSON wire protocol. See docs/SERVICE.md §5.
//
// Usage:
//
//	hwgc-worker -coordinator http://coord:8077
//	hwgc-worker -coordinator http://coord:8077 -slots 4 -name lab-2
//	hwgc-worker -coordinator http://coord:8077 -cache-dir /var/cache/hwgc
//	hwgc-worker -coordinator http://coord:8077 -health-addr :8078
//
// -health-addr serves GET /healthz (liveness) and GET /readyz (200 once
// registered with a free lease slot) so fleets can probe workers without
// speaking the cluster protocol; -log-format {text,json} picks the
// structured log encoding.
//
// The worker heartbeats at the coordinator's advertised interval (carrying
// live progress for every in-flight lease) and re-registers automatically
// if the coordinator loses it. SIGINT/SIGTERM shuts down gracefully:
// in-flight leases finish and complete, then the process exits 0. A
// protocol or simulator-version mismatch with the coordinator is fatal —
// mixing builds would poison the shared content-addressed cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hwgc/internal/cluster"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL (required), e.g. http://coord:8077")
	name := flag.String("name", defaultName(), "worker name for ledger attribution and metrics labels")
	slots := flag.Int("slots", runtime.GOMAXPROCS(0), "concurrent leases to run")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory result cache entries (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist cached results under this directory")
	poll := flag.Duration("poll", 200*time.Millisecond, "idle lease-poll interval")
	healthAddr := flag.String("health-addr", "", "serve GET /healthz and /readyz probes on this address (empty = off)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	logger, err := telemetry.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwgc-worker:", err)
		os.Exit(2)
	}

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "hwgc-worker: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}

	cache, err := resultcache.New(*cacheEntries, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:      *name,
		Client:    &cluster.HTTPClient{Base: *coordinator},
		Slots:     *slots,
		Cache:     cache,
		PollEvery: *poll,
		Log:       logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *healthAddr != "" {
		ln, err := net.Listen("tcp", *healthAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hwgc-worker: health listener:", err)
			os.Exit(1)
		}
		logger.Info("health probes listening", "worker", *name, "addr", ln.Addr().String())
		// Probe traffic only; shuts down with the process.
		go func() { _ = http.Serve(ln, w.HealthHandler()) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("connecting", "worker", *name, "coordinator", *coordinator, "slots", *slots)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger.Info("drained, exiting", "worker", *name)
}

// defaultName is the hostname, or a pid-tagged fallback when unavailable.
func defaultName() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return fmt.Sprintf("worker-%d", os.Getpid())
}
