// Command udpsimd is the simulation-as-a-service daemon: it accepts
// experiment-descriptor JSON over HTTP, schedules jobs on a bounded
// priority/fair queue, runs them through the memoized experiment
// engine, persists results in a content-addressed on-disk store, and
// streams per-cell progress plus per-interval metrics over SSE.
//
// Examples:
//
//	udpsimd -addr :8091 -store /var/lib/udpsim/results
//	udpsimd -addr 127.0.0.1:8091 -workers 2 -j 4 -queue 128
//
// Endpoints (see EXPERIMENTS.md for the full API reference):
//
//	POST   /v1/jobs              submit an experiment descriptor
//	GET    /v1/jobs              list jobs (paged: ?limit= and ?after=)
//	GET    /v1/jobs/{id}         job status (cells + result keys)
//	GET    /v1/jobs/{id}/events  SSE stream (progress, samples, terminal)
//	POST   /v1/tune              submit a parameter-space search (autotuning)
//	GET    /v1/tune/{id}         tune-run status (stats + incumbent)
//	GET    /v1/tune/{id}/events  SSE stream (probes, generations, incumbents)
//	GET    /v1/results/{key}     content-addressed result record
//	GET    /healthz /readyz      health; readiness flips 503 on drain
//	GET    /metrics              Prometheus text (queue depth, dedup, store hits)
//
// SIGTERM/SIGINT drain gracefully: admission stops, queued jobs are
// canceled, running jobs finish (bounded by -drain-timeout), results
// are persisted, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8091", "HTTP listen address")
		storeDir     = flag.String("store", "", "content-addressed result store directory (empty = in-memory only)")
		workers      = flag.Int("workers", 1, "jobs run concurrently")
		parallel     = flag.Int("j", 0, "per-job grid-cell concurrency (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "max queued jobs before 429")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job runtime cap (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "graceful-shutdown budget for running jobs")
		interval     = flag.Uint64("interval", 10_000, "SSE metrics sampling interval in cycles (0 disables samples)")
		storeCacheMB = flag.Int("store-cache-mb", int(serve.DefaultCacheBytes>>20), "in-memory store read cache budget in MiB")
		pprofAddr    = flag.String("pprof", "", "serve live pprof+metrics on this extra address (e.g. :6060)")
		traceOut     = flag.String("trace-out", "", "write the session's job-lifecycle spans as Chrome trace JSON to this file at shutdown (load in Perfetto)")
		verbose      = flag.Bool("v", false, "debug-level logs")
	)
	flag.Parse()

	log := obs.NewLogger(os.Stderr, *verbose)
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	if *workers <= 0 {
		fatal("bad -workers (want a positive count)", "workers", *workers)
	}

	var store *serve.Store
	if *storeDir != "" {
		var err error
		store, err = serve.OpenStore(*storeDir, int64(*storeCacheMB)<<20, log)
		if err != nil {
			fatal("opening result store", "dir", *storeDir, "err", err)
		}
		log.Info("result store open", "dir", *storeDir, "cache_mb", *storeCacheMB)
	} else {
		log.Warn("no -store directory: results are cached in memory only")
	}

	srv := serve.NewServer(serve.ServerConfig{
		Store:       store,
		Workers:     *workers,
		MaxQueue:    *queue,
		JobTimeout:  *jobTimeout,
		Parallelism: *parallel,
		Interval:    *interval,
		Log:         log,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		_, stopDebug, err := obs.ServeDebug(*pprofAddr, log)
		if err != nil {
			fatal("pprof listen failed", "addr", *pprofAddr, "err", err)
		}
		defer stopDebug()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Info("udpsimd listening", "addr", *addr, "workers", *workers, "queue", *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		fatal("http server", "err", err)
	case sig := <-sigCh:
		log.Info("draining on signal", "signal", sig.String(), "timeout", drainTimeout.String())
	}

	// Drain: stop admission (readyz -> 503), cancel queued jobs, let
	// running jobs finish within the budget, then close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Warn("drain incomplete", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, srv); err != nil {
			log.Error("writing trace", "file", *traceOut, "err", err)
		} else {
			log.Info("trace written", "file", *traceOut, "spans", len(srv.Spans()))
		}
	}
	log.Info("udpsimd stopped")
}

// writeTrace dumps the session's recorded lifecycle spans as Chrome
// trace-event JSON.
func writeTrace(path string, srv *serve.Server) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSpans(f, srv.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
