package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"accdb/internal/experiment"
	"accdb/internal/trace"
)

// fig_contended is the paper's own experiment (§5, Figs. 2–4) at one point of
// its sweep: internal/experiment's in-process testbed with simulated statement
// service time, 16 terminals and zero think time, where lock waits and
// deadlock retries — not CPU, wire or disk — set the result. No accd, no
// sockets: a wire or server change must not move it. The end-to-end pass
// measures the ACC system with experiment.Run; the traced pass measures
// strict 2PL and the ACC under the identical load with experiment.Compare and
// reports the ratio the paper plots.
//
// The testbed is experiment's, not a copy of it, so the figure code and the
// benchmark cannot drift apart. What that costs: percentiles come from
// RunResult's log-bucketed histograms (≤ 3 % off) instead of raw samples,
// counters cover warm-up as well as the measured interval (they are only used
// as per-commit ratios), and a completion is what the paper's testbed calls
// one — a commit or a rollback the terminal got an answer for. A transaction
// abandoned as a deadlock victim, timed out or failed counts as failed.
const figWorkload = "fig_contended"

const figWarmup = 2 * time.Second

// figConfig is the operating point: experiment.Defaults — three simulated
// servers, 600µs per statement, a 100µs log force, the standard mix and
// districts — under the load shape every workload here uses.
func (e *env) figConfig(seed int64, measure time.Duration) experiment.Config {
	cfg := experiment.Defaults()
	cfg.Terminals = terminals
	cfg.ThinkTime = 0
	cfg.Warmup = e.warmup(figWarmup)
	cfg.Duration = measure
	cfg.Seed = seed
	return cfg
}

// figRun is experiment.Run plus the correctness gate: the database the run
// leaves must pass the twelve-condition TPC-C audit.
func figRun(cfg experiment.Config) (*experiment.RunResult, error) {
	r, err := experiment.Run(cfg)
	if err != nil {
		return nil, err
	}
	if !r.Consistent {
		return nil, fmt.Errorf("bench: the %v engine left an inconsistent database (%d violations), first: %w",
			r.Mode, len(r.Violations), r.Violations[0])
	}
	return r, nil
}

// figCounts returns how many transactions a run's measured interval ended
// and how many of those were abandoned instead of completed.
func figCounts(r *experiment.RunResult) (attempted, failed int) {
	for _, s := range r.ByType {
		abandoned := s.Errors + s.Deadlocks + s.Timeouts
		attempted += s.Count + abandoned
		failed += abandoned
	}
	return attempted, failed
}

// figEndToEnd measures the ACC system on the contended testbed. Set-up is
// timed on runs without terminals: from the call to the engine-built hook is
// schema, TPC-C load and engine construction, nothing else.
func (e *env) figEndToEnd(seed int64, measure time.Duration) (*result, error) {
	idle := e.figConfig(seed, 0)
	idle.Terminals, idle.Warmup = 0, 0
	setup, err := e.medianSetup(func() (time.Duration, error) {
		var ready time.Time
		idle.OnEngine = engineReady(&ready)
		start := time.Now()
		_, err := figRun(idle)
		return ready.Sub(start), err
	})
	if err != nil {
		return nil, err
	}

	r, err := figRun(e.figConfig(seed, measure))
	if err != nil {
		return nil, err
	}
	out := &result{metrics: map[string]float64{"setup_s": setup, "txn_per_s": r.Throughput}}
	out.attempted, out.failed = figCounts(r)
	for _, name := range txnTypes {
		s := r.ByType[name]
		if s.Count == 0 {
			continue // reported as not measured, never as 0 ms
		}
		out.metrics[name+"_p50_ms"] = float64(s.P50) / nsPerMs
		out.metrics[name+"_p95_ms"] = float64(s.P95) / nsPerMs
		fmt.Fprintf(os.Stderr, "bench: %s percentiles over n=%d samples\n", name, s.Count)
	}
	return out, nil
}

// engineScrape presents a run's engine and lock-service counters under the
// series names accd's /metrics gives them, so engineLayers serves both kinds
// of workload. The counters start at zero with the engine.
func engineScrape(r *experiment.RunResult) *delta {
	return &delta{after: scrape{
		"accdb_txn_commits_total":           float64(r.Engine.Commits),
		"accdb_txn_compensations_total":     float64(r.Engine.Compensations),
		"accdb_txn_step_retries_total":      float64(r.Engine.StepRetries),
		"accdb_txn_retries_total":           float64(r.Engine.TxnRetries),
		"accdb_lock_acquisitions_total":     float64(r.Locks.Acquisitions),
		"accdb_lock_waits_total":            float64(r.Locks.Waits),
		"accdb_lock_wait_seconds_total":     float64(r.Locks.WaitNanos) / 1e9,
		"accdb_lock_deadlocks_total":        float64(r.Locks.Deadlocks),
		"accdb_lock_victims_for_comp_total": float64(r.Locks.VictimsForComp),
	}}
}

// figLayers is fig_contended's traced pass: experiment.Compare runs strict
// 2PL and the ACC under the identical load with tracing off — their ratio is
// the ordinate of the paper's Figs. 2–4 — then the ACC runs again with the
// engine's latency anatomy on, which is what tracing means for an in-process
// engine. Each of the three gets half the measured interval, as a net
// workload's two passes do.
func (e *env) figLayers(seed int64, measure time.Duration) (*result, error) {
	tr := newTracer()
	cfg := e.figConfig(seed, measure/2)

	span := tr.begin(0, "core", "pass.compare")
	point, err := experiment.Compare(cfg) // fails unless both systems end consistent
	if err != nil {
		return nil, err
	}
	twoPL, ref := point.Baseline, point.ACC
	tr.end(span, twoPL.Completed+ref.Completed)

	span = tr.begin(0, "core", "pass.acc.traced")
	cfg.Anatomy = trace.NewAnatomy(trace.AnatomyConfig{})
	traced, err := figRun(cfg)
	if err != nil {
		return nil, err
	}
	tr.end(span, traced.Completed)
	if twoPL.Throughput <= 0 || ref.Throughput <= 0 {
		return nil, errors.New("bench: zero measured samples on the contended testbed")
	}

	out := &result{metrics: map[string]float64{}}
	for _, r := range []*experiment.RunResult{twoPL, ref} {
		attempted, failed := figCounts(r)
		out.attempted += attempted
		out.failed += failed
	}
	m := out.metrics
	m["acc_over_2pl"] = ref.Throughput / twoPL.Throughput
	m["trace.overhead_frac"] = 1 - traced.Throughput/ref.Throughput
	if err := engineLayers(engineScrape(ref), m); err != nil {
		return nil, err
	}
	for system, r := range map[string]*experiment.RunResult{"acc": ref, "2pl": twoPL} {
		commits := float64(r.Engine.Commits)
		m["lock.fig_"+system+"_wait_ms_per_txn"] = per(float64(r.Locks.WaitNanos)/nsPerMs, commits)
		m["lock.fig_"+system+"_deadlocks_per_ktxn"] = 1e3 * per(float64(r.Locks.Deadlocks), commits)
	}
	if err := e.newProber(tr, seed, m).probeAll(); err != nil {
		return nil, err
	}
	return out, tr.write(e.root, figWorkload)
}
