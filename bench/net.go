package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"accdb/internal/tpcc"
	"accdb/pkg/acc"
	"accdb/pkg/accclient"
)

// netWorkload is one workload driven through a real accd child over
// loopback TCP: the flags the server runs with and the traffic it receives.
type netWorkload struct {
	accdArgs []string
	durable  bool // accd logs to a -wal-dir with real write+fsync
	load     loadSpec
}

// The three net workloads. Each was chosen to put a different layer on the
// critical path (README.md has the long form):
//
//   - net_tpcc_1p: accd defaults, standard mix. No I/O, one warehouse, so the
//     time is engine execution, storage and conventional lock waits on the
//     warehouse/district rows.
//   - net_tpcc_4p_durable: four partitions, file-backed WAL with a 1ms
//     group-commit window, 10% remote new-orders. Write+fsync and the
//     multi-shot coordinator's extra forces dominate; CPU layers barely show.
//   - net_read_snapshot: read-heavy mix with the read-only types at the
//     snapshot tier. Lock-free as-of reads beside a thin writer stream; the
//     engine does the least per request here, so wire and server overhead
//     are the largest share.
var netWorkloads = map[string]netWorkload{
	"net_tpcc_1p": {
		load: loadSpec{mix: tpcc.DefaultMix(), readTier: acc.TierLocked},
	},
	"net_tpcc_4p_durable": {
		accdArgs: []string{"-partitions", "4", "-group-commit", "1ms"},
		durable:  true,
		load:     loadSpec{warehouses: 4, remotePct: 10, mix: tpcc.DefaultMix(), readTier: acc.TierLocked},
	},
	"net_read_snapshot": {
		load: loadSpec{mix: tpcc.ReadHeavyMix(), readTier: acc.TierSnapshot},
	},
}

const netWarmup = 3 * time.Second

// terminalRetry is how a terminal treats a deadlock-victim, lock-timeout or
// queue-full refusal: it resubmits, as a TPC-C terminal would, a few times
// before showing the operator an error. Retries are counted
// (accclient.retries_per_kreq) and their time is part of the response time;
// only a request that exhausts them counts as failed.
var terminalRetry = accclient.RetryPolicy{Max: 4, Backoff: 2 * time.Millisecond}

// server is a running accd with a dialed client: the state set-up produces.
type server struct {
	child *accd
	cli   *accclient.Client
}

// setUp spawns accd, waits for its ready handshake and dials it: everything
// between "go" and the first request being sendable. The TPC-C load happens
// inside accd's start-up, so work moved there shows in the returned time.
func (e *env) setUp(w netWorkload, seed int64, traced bool) (*server, time.Duration, error) {
	start := time.Now()
	child, err := startAccd(e.root, e.accdBin, seed, traced, w.durable, w.accdArgs...)
	if err != nil {
		return nil, 0, err
	}
	cli, err := accclient.Dial(child.addr, accclient.WithPoolSize(e.conns), accclient.WithRetry(terminalRetry))
	if err != nil {
		child.kill()
		return nil, 0, child.reap(fmt.Errorf("bench: dial accd: %w", err))
	}
	return &server{child, cli}, time.Since(start), nil
}

// tearDown closes the client and drains accd, returning the drain's verdict.
func (s *server) tearDown() error {
	s.cli.Close()
	return s.child.stop()
}

// abort is tearDown for error paths: the verdict no longer matters.
func (s *server) abort() {
	s.cli.Close()
	s.child.kill()
	s.child.reap(nil)
}

// passTrace is what a pass reads off the client and, when traced, the
// server at the edges of its measured interval.
type passTrace struct {
	cliBefore, cliAfter accclient.Stats
	d                   delta   // /metrics; traced passes only
	rssMB               float64 // accd's peak resident set at the end of the interval; traced passes only
}

// pass is one spawn → warm-up → measured interval → drain cycle.
func (e *env) pass(w netWorkload, seed int64, measure time.Duration, traced bool) (*loadResult, *passTrace, error) {
	s, _, err := e.setUp(w, seed, traced)
	if err != nil {
		return nil, nil, err
	}
	pt := &passTrace{}
	atStart := func() (err error) {
		pt.cliBefore = s.cli.Stats()
		if traced {
			pt.d.before, err = scrapeMetrics(s.child.metrics)
		}
		return err
	}
	atEnd := func() (err error) {
		pt.cliAfter = s.cli.Stats()
		if !traced {
			return nil
		}
		if pt.d.after, err = scrapeMetrics(s.child.metrics); err != nil {
			return err
		}
		pt.rssMB, err = s.child.rssMB()
		return err
	}
	res, err := runLoad(s.cli.RunTier, w.load, seed, e.warmup(netWarmup), measure, atStart, atEnd)
	if err != nil {
		s.abort()
		return nil, nil, err
	}
	if err := s.tearDown(); err != nil {
		return nil, nil, err
	}
	return res, pt, nil
}

// netEndToEnd runs a net workload with tracing off and returns the
// end-to-end metrics.
func (e *env) netEndToEnd(w netWorkload, seed int64, measure time.Duration) (*result, error) {
	setup, err := e.medianSetup(func() (time.Duration, error) {
		s, took, err := e.setUp(w, seed, false)
		if err != nil {
			return 0, err
		}
		return took, s.tearDown()
	})
	if err != nil {
		return nil, err
	}
	res, _, err := e.pass(w, seed, measure, false)
	if err != nil {
		return nil, err
	}
	// The catalogue decides which of the response-time figures are
	// end-to-end metrics; report drops the rest.
	out := newResult(res)
	out.metrics = latencies(res)
	out.metrics["setup_s"] = setup
	out.metrics["txn_per_s"] = throughput(res)
	return out, nil
}

// throughput is correct-outcome completions per measured second.
func throughput(res *loadResult) float64 {
	ok := 0
	for _, s := range res.samples {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / res.elapsed.Seconds()
}

// newResult starts a result from a measured interval's outcome counts.
func newResult(res *loadResult) *result {
	out := &result{attempted: len(res.samples), metrics: map[string]float64{}}
	for _, s := range res.samples {
		if !s.ok {
			out.failed++
		}
	}
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d requests failed; first: %v\n", out.failed, out.attempted, res.firstErr)
	}
	return out
}

// netLayers is the traced pass of a net workload. The measured interval is
// split in two: a reference pass with tracing off, then the same load
// against an accd started with -metrics-addr — which turns its latency
// anatomy on — with /metrics scraped at the edges of the measured interval.
// The layer probes follow, and everything lands in one trace file.
func (e *env) netLayers(name string, w netWorkload, seed int64, measure time.Duration) (*result, error) {
	tr := newTracer()
	refSpan := tr.begin(0, "accclient", "pass.untraced")
	ref, _, err := e.pass(w, seed, measure/2, false)
	if err != nil {
		return nil, err
	}
	tr.end(refSpan, len(ref.samples))
	tracedSpan := tr.begin(0, "accclient", "pass.traced")
	res, pt, err := e.pass(w, seed, measure/2, true)
	if err != nil {
		return nil, err
	}
	tr.end(tracedSpan, len(res.samples))
	tr.requests(tracedSpan, res)

	out := newResult(res)
	m := out.metrics
	for name, v := range latencies(ref) {
		m["accclient."+name] = v
	}
	clientLayers(res, pt.cliBefore, pt.cliAfter, m)
	if err := engineLayers(&pt.d, m); err != nil {
		return nil, err
	}
	serverTotalUs, err := serverLayers(&pt.d, slices.Contains(w.accdArgs, "-partitions"), res.elapsed, m)
	if err != nil {
		return nil, err
	}
	m["server.rss_mb"] = pt.rssMB
	m["trace.overhead_frac"] = 1 - throughput(res)/throughput(ref)
	clientMeanUs := meanUs(res)
	m["ledger.client_mean_us"] = clientMeanUs
	m["accclient.client_overhead_us"] = clientMeanUs - serverTotalUs

	if err := e.newProber(tr, seed, m).probeAll(); err != nil {
		return nil, err
	}
	reconcile(res, w.load.readTier, m)
	return out, tr.write(e.root, name)
}

// reconcile is the ledger (ROADMAP item 1): what the single-goroutine layer
// probes predict an average request of this mix costs with nothing else
// running, set against what clients saw. The measured waits — lock waits,
// the admission queue, the group-commit window — are named stages, so they
// are explained; what is left after probes and waits is the unexplained
// remainder: scheduling delay on a host the generator shares with the
// server, kernel TCP, and whatever the probes fail to reproduce.
func reconcile(res *loadResult, readTier acc.ReadTier, m map[string]float64) {
	read := func(name string) float64 {
		if readTier == acc.TierSnapshot {
			return m["core."+name+"_snapshot_us"]
		}
		return m["core."+name+"_us"]
	}
	var perType [len(txnTypes)]float64
	perType[typeIndex("new_order")] = m["core.new_order_us"]
	perType[typeIndex("payment")] = m["core.payment_us"]
	perType[typeIndex("delivery")] = m["core.delivery_us"]
	perType[typeIndex("order_status")] = read("order_status")
	perType[typeIndex("stock_level")] = read("stock_level")
	// The wire probes price a new-order record, the largest; an upper bound
	// for the other types.
	probeSum := (m["wire.codec_encode_ns"] + m["wire.append_request_ns"] + m["wire.decode_request_ns"] + m["wire.codec_decode_ns"] +
		m["wire.codec_encode_ns"] + m["wire.append_response_ns"] + m["wire.decode_response_ns"] + m["wire.codec_decode_ns"]) / 1e3
	for typ, share := range mixShares(res) {
		probeSum += share * perType[typ]
	}
	waits := m["lock.stage_conv_wait_us"] + m["lock.stage_a_wait_us"] + m["lock.stage_d_wait_us"] + m["lock.stage_c_wait_us"] +
		m["server.stage_queue_us"] + m["wal.stage_group_commit_us"]
	m["ledger.probe_sum_us"] = probeSum
	m["ledger.unexplained_frac"] = 1 - (probeSum+waits)/m["ledger.client_mean_us"]
}
