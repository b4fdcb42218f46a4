// Command litmus-serve runs the Litmus assessment service: the HTTP API
// of internal/serve on one address, with graceful drain on SIGINT /
// SIGTERM.
//
// Usage:
//
//	litmus-serve -addr :8080
//	curl -s localhost:8080/healthz
//
// Flags tune the queue depth, worker count, bound on finished records
// (the result cache), per-job timeout and 429 Retry-After hint; -pprof
// mounts /debug/pprof on the same listener. -journal-dir makes jobs
// durable: every submission and completion is appended to a crash-safe
// journal there (segments rotate at -journal-max-bytes), and on boot
// the journal is replayed — completed results come back as done
// records, unfinished jobs are re-enqueued, and /readyz serves 503
// "replaying" until replay lands.
// Diagnostics are structured log/slog records on stderr — JSON by
// default, -log-format text for human reading. The effective listen
// address is printed on stdout as
//
//	litmus-serve: listening on http://127.0.0.1:8080
//
// so callers binding ":0" (tests, the serve-smoke CI job) can discover
// the port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		queueDepth    = flag.Int("queue", 0, "submission queue depth (0 = default 64)")
		workers       = flag.Int("workers", 0, "concurrent assessment jobs (0 = default 2)")
		cacheSize     = flag.Int("cache", 0, "finished records kept, the result cache: jobs, batch entries and replayed results, least recently used forgotten first (0 = default 1024)")
		jobTimeout    = flag.Duration("job-timeout", 0, "per-job execution deadline (0 = default 5m)")
		retryAfter    = flag.Duration("retry-after", 0, "backoff hint sent with 429 responses (0 = default 1s)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		enablePprof   = flag.Bool("pprof", false, "mount /debug/pprof on the service listener")
		journalDir    = flag.String("journal-dir", "", "durable job journal directory (empty = no journal)")
		journalMaxSeg = flag.Int64("journal-max-bytes", 0, "journal segment rotation threshold in bytes (0 = default 4MiB)")
	)
	logFlags := obscli.RegisterLog("json")
	flag.Parse()

	log, err := logFlags.Logger("litmus-serve")
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus-serve:", err)
		os.Exit(2)
	}

	// The registry is created up front so the journal and the server share
	// one: journal counters (appends, replays, compactions) land on the
	// same /metrics page as the job counters.
	reg := obs.NewRegistry()
	var jr *journal.Journal
	if *journalDir != "" {
		// Retain as many journaled results as the server keeps records —
		// replaying more than it can hold would be wasted journal space.
		// Both default to 1024.
		jr, err = journal.Open(journal.Options{
			Dir:             *journalDir,
			MaxSegmentBytes: *journalMaxSeg,
			RetainResults:   *cacheSize,
			Registry:        reg,
		})
		if err != nil {
			fatal(log, "opening journal", err)
		}
		log.Info("journal open", "dir", jr.Dir())
	}

	s := serve.New(serve.Config{
		QueueDepth:  *queueDepth,
		Workers:     *workers,
		CacheSize:   *cacheSize,
		JobTimeout:  *jobTimeout,
		RetryAfter:  *retryAfter,
		EnablePprof: *enablePprof,
		Logger:      log,
		Registry:    reg,
		Journal:     jr,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(log, "listen", err)
	}
	httpServer := &http.Server{Handler: s.Handler()}
	// The listen address is program output (smoke tests and scripts parse
	// it), not a diagnostic: it stays on stdout in a fixed format.
	fmt.Printf("litmus-serve: listening on http://%s\n", ln.Addr())
	log.Info("serving", "addr", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("draining", "signal", sig.String(), "timeout", drainTimeout.String())
	case err := <-errc:
		fatal(log, "serving", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the job queue: queued
	// and in-flight assessments finish unless the drain timeout expires,
	// at which point their contexts are canceled.
	if err := httpServer.Shutdown(ctx); err != nil {
		log.Error("http shutdown", "error", err.Error())
	}
	drainErr := s.Shutdown(ctx)
	if jr != nil {
		// Closed after the drain: the last in-flight completions have been
		// journaled by then, and Close fsyncs the active segment so a clean
		// shutdown never depends on the OS flushing the page cache.
		if err := jr.Close(); err != nil {
			log.Error("closing journal", "error", err.Error())
		} else {
			log.Info("journal closed", "dir", jr.Dir())
		}
	}
	if drainErr != nil {
		fatal(log, "drain incomplete", drainErr)
	}
	log.Info("drained cleanly")
}

func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "error", err.Error())
	os.Exit(1)
}
