// Command ilplimitd serves the parallelism-limit analysis as a
// multi-tenant daemon: clients POST a mini-C program, textual assembly,
// a recorded trace, or a benchmark-suite selection to /v1/jobs and
// receive the model × benchmark parallelism matrix as JSON.
//
// Usage:
//
//	ilplimitd -addr 127.0.0.1:8080            # serve the API
//	ilplimitd -data state/                    # durable results (survive SIGKILL)
//	ilplimitd -workers 4 -queue-depth 16      # capacity
//	ilplimitd -tenant-quota 2                 # per-tenant running bound
//	ilplimitd -job-timeout 60s                # default per-job deadline
//	ilplimitd -debug-addr 127.0.0.1:6060      # expvar + pprof
//	ilplimitd -version                        # build provenance
//
// The daemon degrades explicitly instead of collapsing: a full
// admission queue sheds with 429 + Retry-After, a flooding tenant is
// shed before it can crowd out the others, oversized bodies get 413,
// slow-loris uploads are cut by the read timeout, and SIGTERM drains
// in-flight jobs before exiting.  With -data, completed results are
// journaled durably and replayed byte-identically after a restart —
// kill -9 included — and interrupted suite jobs resume instead of
// re-running completed benchmarks.
//
// The fault-injection flags (-exec-delay, -panic-every, -fail-every)
// shape load deterministically for the soak harness and resilience
// tests; leave them unset in real deployments.
package main

import (
	"context"
	_ "expvar" // registers /debug/vars on the -debug-addr server
	"flag"
	"fmt"
	"net"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr server
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ilplimit/internal/faultinject"
	"ilplimit/internal/httpserve"
	"ilplimit/internal/server"
	"ilplimit/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "serve the job API on this address (\":0\" picks a port, announced on stderr)")
		data         = flag.String("data", "", "durable state directory: journaled results survive restarts and kill -9 (empty = in-memory only)")
		workers      = flag.Int("workers", 0, "job execution pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue bound; jobs beyond it are shed with 429 (0 = default 64)")
		tenantQueue  = flag.Int("tenant-queue-depth", 0, "one tenant's share of the admission queue (0 = quarter of queue-depth)")
		tenantQuota  = flag.Int("tenant-quota", 0, "one tenant's concurrently running jobs (0 = default 2)")
		maxBody      = flag.Int64("max-body", 0, "request body byte limit, 413 beyond (0 = default 8 MiB)")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job deadline (0 = 60s)")
		maxTimeout   = flag.Duration("max-timeout", 0, "ceiling for client-requested deadlines (0 = 5m)")
		maxScale     = flag.Int("max-scale", 0, "largest accepted suite scale factor (0 = default 8)")
		cacheEntries = flag.Int("cache-entries", 0, "completed-result LRU size (0 = default 256)")
		traceCache   = flag.String("trace-cache", "", "persistent annotated trace store shared across jobs: warm entries replay with no VM run (uploaded-trace jobs never use it)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before forcing exit")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "cut a connection whose request has not fully arrived in this long (the slow-loris defense)")
		debugAddr    = flag.String("debug-addr", "", "serve expvar and net/http/pprof on this address")
		execDelay    = flag.Duration("exec-delay", 0, "fault injection: pause every job this long before analysis (soak load shaping)")
		panicEvery   = flag.Int64("panic-every", 0, "fault injection: panic inside every Nth job")
		failEvery    = flag.Int64("fail-every", 0, "fault injection: fail every Nth job")
		version      = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("ilplimitd %s %s\n", telemetry.GitRevision(), runtime.Version())
		return
	}

	met := telemetry.NewRegistry()
	var plan *faultinject.ServerPlan
	if *execDelay > 0 || *panicEvery > 0 || *failEvery > 0 {
		plan = &faultinject.ServerPlan{
			ExecDelay: *execDelay, PanicEvery: *panicEvery, FailEvery: *failEvery,
		}
		fmt.Fprintf(os.Stderr, "ilplimitd: fault injection armed (exec-delay %v, panic-every %d, fail-every %d)\n",
			*execDelay, *panicEvery, *failEvery)
	}
	srv, err := server.New(server.Config{
		DataDir:          *data,
		QueueDepth:       *queueDepth,
		TenantQueueDepth: *tenantQueue,
		TenantQuota:      *tenantQuota,
		Workers:          *workers,
		MaxBodyBytes:     *maxBody,
		DefaultTimeout:   *jobTimeout,
		MaxTimeout:       *maxTimeout,
		MaxScale:         *maxScale,
		CacheEntries:     *cacheEntries,
		TraceStore:       *traceCache,
		Fault:            plan,
		Metrics:          met,
		GitSHA:           telemetry.GitRevision(),
	})
	if err != nil {
		fail(err)
	}

	// Register the handler before announcing any listener: a supervisor
	// that signals the instant it sees the address must find the trap
	// already armed, not the default kill action.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	var debug *httpserve.Server
	if *debugAddr != "" {
		met.PublishExpvar("ilplimitd")
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(fmt.Errorf("debug-addr %s: %w", *debugAddr, err))
		}
		// nil handler = DefaultServeMux, where expvar and pprof registered.
		debug = httpserve.Start(dln, nil, httpserve.Options{})
		fmt.Fprintf(os.Stderr, "ilplimitd: debug server listening on %s\n", debug.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(fmt.Errorf("addr %s: %w", *addr, err))
	}
	// The read timeouts are the slow-loris defense: a client trickling
	// its upload is cut off instead of pinning a connection forever.
	api := httpserve.Start(ln, srv.Handler(), httpserve.Options{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       2 * time.Minute,
	})
	fmt.Fprintf(os.Stderr, "ilplimitd: listening on %s\n", api.Addr())

	sig := <-sigs
	fmt.Fprintf(os.Stderr, "ilplimitd: %v: draining (up to %v)\n", sig, *drainWait)

	// Graceful shutdown: stop admitting first (new jobs shed with 429,
	// healthz flips not-ready so balancers stop routing here), let the
	// queue and the workers empty, then close the listeners and the
	// durable store.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	drainErr := srv.Drained(ctx)
	cancel()
	if err := api.Shutdown(5 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "ilplimitd: api shutdown:", err)
	}
	if debug != nil {
		if err := debug.Shutdown(time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "ilplimitd: debug shutdown:", err)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ilplimitd: close:", err)
	}
	if drainErr != nil {
		fail(fmt.Errorf("drain incomplete: %w", drainErr))
	}
	fmt.Fprintln(os.Stderr, "ilplimitd: drained cleanly")
}

// fail reports a fatal error on stderr and exits non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "ilplimitd:", err)
	os.Exit(1)
}
