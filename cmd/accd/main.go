// Command accd serves an ACC engine's registered transaction types over TCP.
// It loads a deterministic TPC-C database at startup, listens on -addr with
// the length-prefixed wire protocol (internal/server/wire), and admits at
// most -max-inflight concurrent requests — beyond that clients get a fast
// queue-full refusal instead of unbounded queueing.
//
// SIGTERM or SIGINT starts a graceful drain: the listener closes, new
// requests are refused with a draining status, in-flight transactions run to
// completion (commit or §3.4 compensation), the write-ahead log is forced,
// and — unless -check=false — the twelve-component TPC-C consistency
// constraint is verified over the final database, with compensated
// new-order holes observed server-side. Violations exit non-zero, so a CI
// smoke run asserts end-to-end integrity just by checking the exit code.
//
// A write-ahead log that fails (write or fsync error) is fail-stop: the
// engine answers every later request with an internal error, accd starts the
// drain on its own and exits non-zero naming the partition and the error.
//
// With -metrics-addr set, the shared debug endpoint (internal/debughttp)
// serves /metrics (engine, lock, WAL, latency-anatomy, admission and per-RPC
// series in Prometheus text format), /debug/locks, /debug/waitsfor,
// /debug/anatomy and /debug/pprof. With -slow-txn-threshold set, every
// transaction slower than the threshold is dumped to -slow-txn-log as one
// JSONL record carrying its full per-stage breakdown and event history;
// -slow-txn-threshold 1ns records every transaction.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "accdb/internal/backends"
	"accdb/internal/core"
	"accdb/internal/debughttp"
	"accdb/internal/server"
	"accdb/internal/tpcc"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7654", "listen address for the wire protocol")
		mode         = flag.String("mode", "acc", "scheduler: acc | baseline")
		maxInFlight  = flag.Int("max-inflight", server.DefaultMaxInFlight, "admission bound on concurrently executing requests")
		waitTimeout  = flag.Duration("wait-timeout", 10*time.Second, "lock-wait safety net")
		force        = flag.Duration("force", 0, "simulated log force latency (with -wal-dir, on top of the fsync)")
		walDir       = flag.String("wal-dir", "", "back the log with segment files in this directory")
		groupCommit  = flag.Duration("group-commit", 0, "cross-session group-commit window: a force leader waits this long so concurrent commits share one log sync (0 disables)")
		seed         = flag.Int64("seed", 1, "TPC-C load seed")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /debug/locks, /debug/waitsfor, /debug/anatomy and /debug/pprof on this address (e.g. :6061)")
		slowThr      = flag.Duration("slow-txn-threshold", 0, "dump any transaction slower than this to -slow-txn-log as JSONL, with its full stage breakdown and event history (0 disables)")
		slowLog      = flag.String("slow-txn-log", "slow-txns.jsonl", "destination for -slow-txn-threshold dumps")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain; in-flight work past it is cancelled (and compensated)")
		check        = flag.Bool("check", true, "verify TPC-C consistency after the drain; violations exit non-zero")
		ready        = flag.String("ready-fd", "", "write one line with the bound address to this file once listening (harness handshake)")
		partitions   = flag.Int("partitions", 1, "partition count: >1 shards warehouses across independent engines behind the multi-shot coordinator")
	)
	flag.Parse()

	var m core.Mode
	switch *mode {
	case "acc":
		m = core.ModeACC
	case "baseline":
		m = core.ModeBaseline
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}

	// One stack for every partition count: -partitions 1, the default, is
	// the same set, router and per-partition log layout with one engine.
	st, err := tpcc.NewStack(tpcc.StackConfig{
		Partitions: *partitions,
		Scale:      tpcc.DefaultScale(),
		Seed:       *seed,
		WALDir:     *walDir,
		WAL:        wal.Options{ForceLatency: *force, GroupWindow: *groupCommit},
		Engine: []core.Option{
			core.WithMode(m),
			core.WithWaitTimeout(*waitTimeout),
		},
	})
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	if len(st.Used) > 0 {
		// The database was loaded fresh and transaction ids restart at 1:
		// appending to these logs would interleave two histories that a
		// later recovery could not tell apart.
		fatal(fmt.Errorf("-wal-dir %s already holds log records (%s): accd does not recover at startup; "+
			"recover the directory first (see examples/recovery) or point -wal-dir at an empty one",
			*walDir, strings.Join(st.Used, ", ")))
	}
	set := st.Set

	// The latency-anatomy layer turns on with either consumer: the debug
	// endpoint's live histograms, or the slow-transaction flight recorder.
	// It attaches to the server (not the engine): the server starts each
	// request's span at frame read, so the engine must not start its own.
	var anatomy *trace.Anatomy
	if *metricsAddr != "" || *slowThr > 0 {
		acfg := trace.AnatomyConfig{SlowThreshold: *slowThr}
		if *slowThr > 0 {
			f, err := os.Create(*slowLog)
			if err != nil {
				fatal(err)
			}
			acfg.SlowWriter = f
		}
		anatomy = trace.NewAnatomy(acfg)
	}

	holes := tpcc.NewHoleTracker()
	logFailed := make(chan struct{}, 1) // one wake-up is enough; later failures find it full
	srv := server.New(server.Config{
		Engine:      set,
		MaxInFlight: *maxInFlight,
		Anatomy:     anatomy,
		OnOutcome: func(txnType string, args any, err error) {
			holes.Observe(txnType, args, err)
			if errors.Is(err, core.ErrLogFailed) {
				select {
				case logFailed <- struct{}{}:
				default:
				}
			}
		},
	})

	if *metricsAddr != "" {
		dbg := debughttp.New(anatomy)
		// The engine sections of /metrics show partition 0 (every partition is
		// symmetric), /debug/locks and /debug/waitsfor every partition; the
		// set's own routing/coordinator series ride along.
		dbg.SetEngines(set.Engines()...)
		dbg.AddMetrics(srv.WriteMetrics)
		dbg.AddMetrics(set.WriteMetrics)
		if err := dbg.Start(*metricsAddr); err != nil {
			fatal(err)
		}
	}

	// Catch the drain signal before announcing readiness: a supervisor may
	// send it the moment the ready file appears.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "accd: serving %s TPC-C on %s (max in-flight %d, partitions %d)\n",
		m, ln.Addr(), *maxInFlight, *partitions)
	if *ready != "" {
		if err := os.WriteFile(*ready, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "accd: %v: draining (timeout %v)\n", sig, *drainTimeout)
	case <-logFailed:
		fmt.Fprintf(os.Stderr, "accd: write-ahead log failed: draining (timeout %v)\n", *drainTimeout)
	case err := <-serveErr:
		fatal(fmt.Errorf("accd: serve: %w", err))
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "accd: drain incomplete:", err)
	}
	rs := srv.Stats()
	var es core.Stats
	for _, e := range set.Engines() {
		s := e.Snapshot()
		es.Commits += s.Commits + s.ReadOnly // as /metrics counts them: read-only ones included
		es.Compensations += s.Compensations
	}
	ps := set.Snapshot()
	fmt.Fprintf(os.Stderr,
		"accd: partition routing: single=%d cross_started=%d cross_committed=%d cross_aborted=%d shots=%d undos=%d deadlocks=%d\n",
		ps.SingleRouted, ps.CrossStarted, ps.CrossCommitted, ps.CrossAborted,
		ps.ShotsRun, ps.ShotUndos, ps.CrossDeadlocks)
	fmt.Fprintf(os.Stderr,
		"accd: drained: admitted=%d rejected_full=%d rejected_draining=%d commits=%d compensations=%d\n",
		rs.Admitted, rs.RejectedFull, rs.RejectedDraining, es.Commits, es.Compensations)

	// A failed log is fail-stop: what the database holds beyond the durable
	// prefix was never acknowledged, so there is nothing to audit.
	failed := false
	for p, l := range st.Logs() {
		if l.Crashed() {
			fmt.Fprintf(os.Stderr, "accd: partition %d: write-ahead log failed: %v\n", p, l.Err())
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}

	if *check {
		if errs := st.Check(holes.Holes()); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "accd: consistency violation:", e)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "accd: consistency check passed")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accd:", err)
	os.Exit(1)
}
