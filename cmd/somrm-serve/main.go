// Command somrm-serve runs the somrm solver service: an HTTP JSON API
// over the model interchange format of internal/spec, with a bounded
// worker pool, an LRU result cache, in-flight deduplication of identical
// requests, and graceful shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	somrm-serve [-addr :8639] [-workers N] [-queue N] [-batch-reserve N]
//	            [-cache N] [-prepared-cache N] [-timeout 30s]
//	            [-max-order 12] [-drain-timeout 30s]
//	            [-sweep-workers N]
//	            [-checkpoints] [-checkpoint-ttl 2m] [-checkpoint-cap 64]
//	            [-cache-persist DIR] [-mem-budget BYTES]
//	            [-self URL -peers URL,URL,...] [-peer-secret S]
//	            [-probe-interval 2s] [-handoff-max N]
//	            [-pprof]
//	            [-fault-503 P] [-fault-truncate P] [-fault-panic P]
//	            [-fault-latency D] [-fault-seed N]
//	            [-fault-disk-err P] [-fault-disk-torn P]
//
// Durability (see README "Durability & recovery"): -checkpoints (on by
// default) turns mid-sweep deadlines into 202 partial responses with a
// resume token instead of wasted work; -cache-persist journals the result
// cache under DIR so a killed replica restarts warm; -mem-budget sheds
// requests whose estimated solver working set would not fit, with a typed
// 503, before they can OOM the replica.
//
// -self enables cluster mode: the replica joins a consistent-hash ring
// with the -peers replicas (every replica must be started with the same
// URL set), serves peer cache fills on its shard, and streams its hottest
// cache entries to ring successors when draining. The internal /v1/peer/*
// endpoints exist only in cluster mode; -peer-secret (or the
// SOMRM_PEER_SECRET environment variable, preferred since it stays out of
// ps output) guards them with a shared secret that every replica must be
// given. See README "Running a cluster".
//
// -pprof mounts Go's net/http/pprof profiling handlers under
// /debug/pprof/ on the same listener; they are absent unless the flag
// is set.
//
// The -fault-* flags enable the fault-injection middleware for chaos
// testing (probabilities in [0,1]); they are never on by default and
// log a warning when set. Do not use them in production.
//
// Endpoints:
//
//	POST /v1/solve        solve a model (see README "Running the server")
//	POST /v1/solve/batch  solve one model at many time grids in one request
//	GET  /healthz         liveness (503 while draining)
//	GET  /metrics         JSON counters and solve latency histogram
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"somrm/internal/cluster"
	"somrm/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "somrm-serve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until the context-cancelling signal
// arrives (or, in tests, until ready has been consumed and stop fires).
// ready, when non-nil, receives the bound address once listening.
func run(args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("somrm-serve", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8639", "listen address")
	workers := fs.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "solve queue capacity (0 = default 64)")
	batchReserve := fs.Int("batch-reserve", 0, "queue slots reserved for single solves; batch items are shed first (0 = default queue/4, negative disables)")
	cache := fs.Int("cache", 0, "result cache entries (0 = default 256, negative disables)")
	prepCache := fs.Int("prepared-cache", 0, "prepared-model cache entries (0 = default 128, negative disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request solve deadline")
	maxOrder := fs.Int("max-order", 0, "highest accepted moment order (0 = default 12)")
	sweepWorkers := fs.Int("sweep-workers", 0, "per-solve randomization sweep parallelism: 0 auto (fused kernel at every size; a worker team at 8,191 states and up), N forces a fused team of N, negative selects the serial reference sweep used as the test oracle")
	checkpoints := fs.Bool("checkpoints", true, "answer mid-sweep deadlines with a 202 partial + resume token instead of discarding progress")
	checkpointTTL := fs.Duration("checkpoint-ttl", 0, "how long an unclaimed resume checkpoint is held (0 = default 2m)")
	checkpointCap := fs.Int("checkpoint-cap", 0, "max held resume checkpoints, oldest evicted first (0 = default 64)")
	cachePersist := fs.String("cache-persist", "", "directory for the crash-safe warm cache (journal + snapshot); empty disables persistence")
	memBudget := fs.Int64("mem-budget", 0, "shed solves whose estimated working set would push in-flight bytes past this budget (0 disables)")
	self := fs.String("self", "", "cluster mode: this replica's advertised base URL (e.g. http://10.0.0.3:8639)")
	peers := fs.String("peers", "", "cluster mode: comma-separated base URLs of the other replicas")
	peerSecret := fs.String("peer-secret", "", "cluster mode: shared secret authenticating the internal /v1/peer/* endpoints (defaults to $SOMRM_PEER_SECRET; empty leaves them open)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "cluster mode: peer /healthz probe cadence (negative disables probing)")
	handoffMax := fs.Int("handoff-max", 0, "cluster mode: max cache entries streamed to ring successors on drain (0 = default 128, negative disables)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/ (off by default)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	fault503 := fs.Float64("fault-503", 0, "TESTING ONLY: probability of injecting a 503 per request")
	faultTrunc := fs.Float64("fault-truncate", 0, "TESTING ONLY: probability of truncating a response mid-body")
	faultPanic := fs.Float64("fault-panic", 0, "TESTING ONLY: probability of panicking in the handler")
	faultLatency := fs.Duration("fault-latency", 0, "TESTING ONLY: fixed latency added to every request")
	faultDiskErr := fs.Float64("fault-disk-err", 0, "TESTING ONLY: probability of failing a cache-persistence write")
	faultDiskTorn := fs.Float64("fault-disk-torn", 0, "TESTING ONLY: probability of tearing a cache-persistence write mid-line")
	faultSeed := fs.Int64("fault-seed", 0, "TESTING ONLY: fault injection RNG seed (0 = 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	logger := log.New(logw, "somrm-serve: ", log.LstdFlags)
	faults := server.FaultConfig{
		FailureRate:  *fault503,
		TruncateRate: *faultTrunc,
		PanicRate:    *faultPanic,
		Latency:      *faultLatency,
		DiskErrRate:  *faultDiskErr,
		DiskTornRate: *faultDiskTorn,
		Seed:         *faultSeed,
	}
	var injector *server.FaultInjector
	if faults != (server.FaultConfig{Seed: faults.Seed}) {
		logger.Printf("WARNING: fault injection enabled (503 %.2f, truncate %.2f, panic %.2f, latency %s, disk-err %.2f, disk-torn %.2f) — testing only",
			faults.FailureRate, faults.TruncateRate, faults.PanicRate, faults.Latency, faults.DiskErrRate, faults.DiskTornRate)
		injector = server.NewFaultInjector(faults)
	}

	srvOpts := server.Options{
		Workers:           *workers,
		QueueSize:         *queue,
		BatchQueueReserve: *batchReserve,
		CacheSize:         *cache,
		PreparedCacheSize: *prepCache,
		DefaultTimeout:    *timeout,
		MaxOrder:          *maxOrder,
		SweepWorkers:      *sweepWorkers,
		HandoffMax:        *handoffMax,
		Checkpoints:       *checkpoints,
		CheckpointTTL:     *checkpointTTL,
		CheckpointCap:     *checkpointCap,
		PersistDir:        *cachePersist,
		DiskFaults:        injector,
		MemBudget:         *memBudget,
	}
	if *cachePersist != "" {
		logger.Printf("cache persistence enabled under %s", *cachePersist)
	}
	if *memBudget > 0 {
		logger.Printf("memory admission gate enabled: budget %d bytes", *memBudget)
	}

	var handler http.Handler
	var shutdown func(context.Context) error
	if *self != "" {
		secret := *peerSecret
		if secret == "" {
			// Keep the secret off the command line where it would show in
			// ps; the environment is the recommended channel.
			secret = os.Getenv("SOMRM_PEER_SECRET")
		}
		peerURLs := splitURLs(*peers)
		node, err := cluster.NewNode(cluster.NodeOptions{
			Self:          *self,
			Peers:         peerURLs,
			Server:        srvOpts,
			ProbeInterval: *probeInterval,
			PeerSecret:    secret,
		})
		if err != nil {
			return err
		}
		handler = node.Handler()
		shutdown = node.Shutdown
		logger.Printf("cluster mode: self=%s ring=%d replicas peer-auth=%v",
			*self, len(node.Ring().Nodes()), secret != "")
	} else {
		if *peers != "" {
			return fmt.Errorf("-peers requires -self (this replica's own advertised URL)")
		}
		if *peerSecret != "" {
			return fmt.Errorf("-peer-secret requires -self (cluster mode)")
		}
		// Fail at startup if the persistence directory is unusable, rather
		// than silently running with a cold cache.
		svc, err := server.NewWithPersistence(srvOpts)
		if err != nil {
			return err
		}
		if restored := svc.Metrics().CacheRestored.Load(); restored > 0 {
			logger.Printf("restored %d cache entries from %s", restored, *cachePersist)
		}
		handler = svc.Handler()
		shutdown = svc.Shutdown
	}
	if injector != nil {
		handler = injector.Middleware(handler)
	}
	if *pprofFlag {
		// Mount the profiling endpoints on an outer mux so they bypass the
		// fault injector and the service's own routing. Off by default:
		// pprof exposes stack traces and CPU profiles, so it is opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Printf("pprof profiling endpoints enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Printf("shutting down (draining up to %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections and let in-flight HTTP exchanges finish,
	// then drain the solver pool (queued solves 503 immediately).
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("drain: %w", err)
	}
	logger.Printf("bye")
	return nil
}

// splitURLs parses a comma-separated URL list, dropping empty tokens.
func splitURLs(arg string) []string {
	var urls []string
	for _, tok := range strings.Split(arg, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			urls = append(urls, tok)
		}
	}
	return urls
}
