package experiment

// The crash matrix: for every registered fault injection point, run a TPC-C
// mix against a disk-backed tpcc.Stack of n ≥ 1 partitions, trip the point —
// which takes every partition's log down together, the way a process kill
// would — restart (fresh base state + reopened logs), recover each partition
// and the coordinator's decision records through Set.Recover, and verify the
// TPC-C consistency battery (including the cross-partition stock condition)
// over every partition store, and that nothing the doomed run acknowledged
// is missing from them; then re-admit load on the recovered set and verify
// again. DESIGN.md §10 and §16 document the protocols this harness checks:
// recovery is only trusted because every durability transition has been
// crashed through.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/fault"
	"accdb/internal/tpcc"
	"accdb/internal/wal"
)

// CrashConfig parameterizes one crash-matrix case.
type CrashConfig struct {
	// Point is the injection point to trip, with its natural effect
	// (typically one entry of fault.Points()).
	Point fault.Info
	// Nth fires the effect on the point's nth hit (default 3 — past the
	// trivial first-use cases).
	Nth uint64
	// Seed drives the load generator, the fault controller, and the initial
	// database load; one (point, seed, nth) triple replays exactly.
	Seed int64
	// WALDir is the parent segment directory (required; caller owns
	// cleanup); partition p logs under WALDir/p<p>.
	WALDir string
	// Partitions is the partition count. The default is 1, or 4 for a
	// partition.coord.* point: those sit on the cross-partition path, and
	// asking one of a single partition is an error. The scale's warehouse
	// count is widened to it, so every partition owns a warehouse.
	Partitions int
	// Terminals is the concurrent driver count (default 8).
	Terminals int
	// RerunOps is how many transactions the recovered set runs before the
	// final consistency check (default 300).
	RerunOps int
}

// Fixed parameters of every case.
const (
	// crashMaxOps stops the doomed run if the point has not fired by then.
	crashMaxOps = 4000
	// crashRemotePercent is the share of new-orders with a remote supply
	// line: with several partitions every such order on a foreign warehouse
	// is a cross-partition transaction; with one warehouse the generator
	// ignores it.
	crashRemotePercent = 25
	// crashSegmentSize, the per-partition WAL rotation threshold, is small so
	// rotation points get exercised.
	crashSegmentSize = 32 << 10
	// crashGroupWindow is small but nonzero so the group-commit fault point
	// gets exercised.
	crashGroupWindow = 100 * time.Microsecond
)

// CrashResult reports one crash-matrix case.
type CrashResult struct {
	// Fired reports whether the armed point actually tripped during the run
	// (a Delay point counts as fired once it has been hit).
	Fired bool
	// Committed sums the committed transactions recovery found across all
	// partition logs (remote shots count on their own partitions).
	Committed int
	// Compensated sums the transactions local recovery rolled back by
	// compensating step.
	Compensated int
	// ForwardDriven and Undone count the multi-shot decision records the
	// coordinator pass closed each way; both are 0 with one partition.
	ForwardDriven int
	Undone        int
	// TornTail is the first tail damage a reopened log reported, if any.
	TornTail *wal.ErrTornTail
	// Violations is the consistency battery on the recovered, quiescent
	// state, evaluated across every partition store.
	Violations []error
	// Acked counts the transactions the doomed run acknowledged OK, and
	// LostAcks lists those whose effect the recovered state lacks.
	// Acknowledged means durable: LostAcks must be empty whatever point fired.
	Acked    int
	LostAcks []string
	// RerunCompleted and RerunViolations cover the post-recovery load: the
	// recovered set must not merely hold a consistent state but keep
	// producing them.
	RerunCompleted  int
	RerunViolations []error
}

// crashScale is the crash-matrix cardinality (the stack widens it to one
// warehouse per partition): small enough that a case runs in well under a
// second, hot enough that the mix exercises multi-step interleaving and
// compensation.
var crashScale = tpcc.Scale{
	Warehouses: 1, Districts: 4, CustomersPerDistrict: 20,
	Items: 50, InitialOrdersPerDistrict: 20, NewOrderBacklog: 8,
}

// buildCrashSystem loads the base state (deterministic in cfg.Seed) and
// assembles the ACC stack over disk-backed logs under cfg.WALDir, with a
// workload bound to its set.
func buildCrashSystem(cfg CrashConfig) (*tpcc.Stack, *tpcc.Workload, error) {
	st, err := tpcc.NewStack(tpcc.StackConfig{
		Partitions: cfg.Partitions,
		Scale:      crashScale,
		Seed:       cfg.Seed,
		WALDir:     cfg.WALDir,
		WAL:        wal.Options{SegmentSize: crashSegmentSize, GroupWindow: crashGroupWindow},
		Engine:     []core.Option{core.WithMode(core.ModeACC), core.WithWaitTimeout(10 * time.Second)},
	})
	if err != nil {
		return nil, nil, err
	}
	wcfg := tpcc.DefaultWorkloadConfig(st.Scale)
	// A fifth of new-orders roll back via the unused-item rule (remote ones
	// in their final step, after their shots committed), keeping the
	// compensation paths hot so the comp-force and undo points fire quickly.
	wcfg.RollbackPercent = 20
	wcfg.RemotePercent = crashRemotePercent
	return st, tpcc.NewWorkload(st.Set, wcfg), nil
}

// drive runs cfg.Terminals terminals without think time until ops
// transactions were started or stop is closed, and returns how many
// committed; acks, when non-nil, remembers each of them. Concurrent terminals
// let group commit share the log syncs, which is what bounds a case's wall
// time.
func drive(w *tpcc.Workload, cfg CrashConfig, seed int64, ops int, stop <-chan struct{}, acks *tpcc.AckLog) int {
	var committed atomic.Int64
	Terminals{N: cfg.Terminals, Seed: seed, Ops: ops, Stop: stop,
		Done: func(name string, args any, out core.Outcome, _ time.Duration) {
			if out == core.OutcomeOK {
				committed.Add(1)
				if acks != nil {
					acks.Observe(name, args)
				}
			}
		}}.Drive(w)
	return int(committed.Load())
}

// RunCrash executes one crash-matrix case: doomed run, crash, restart,
// per-partition + coordinator recovery, consistency check, re-run,
// consistency check.
func RunCrash(cfg CrashConfig) (*CrashResult, error) {
	if cfg.Nth == 0 {
		cfg.Nth = 3
	}
	coord := strings.HasPrefix(cfg.Point.Name, "partition.coord.")
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
		if coord {
			cfg.Partitions = 4
		}
	}
	if cfg.Terminals == 0 {
		cfg.Terminals = 8
	}
	if cfg.RerunOps == 0 {
		cfg.RerunOps = 300
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("experiment: crash case needs a WAL directory")
	}
	if coord && cfg.Partitions == 1 {
		return nil, fmt.Errorf("experiment: %s sits on the cross-partition path and cannot fire with one partition", cfg.Point.Name)
	}
	crashes := cfg.Point.Effect != fault.Delay

	// Phase 1: the doomed run.
	st, w, err := buildCrashSystem(cfg)
	if err != nil {
		return nil, err
	}
	ctrl := fault.NewController(cfg.Seed)
	spec := fault.Spec{Effect: cfg.Point.Effect, Nth: cfg.Nth}
	maxOps := crashMaxOps
	if !crashes {
		spec.Nth = 0  // stall every hit; there is no crash to wait for
		maxOps = 1000 // every force pays the stall; bound the run
	}
	ctrl.Arm(cfg.Point.Name, spec)
	ctrl.Activate()

	// The partition.coord.* points freeze every partition log themselves; a
	// generic point (wal.*, core.*) freezes only the log it fired in. The
	// partitions share one process, so a fired crash must take all the logs
	// down together — otherwise healthy partitions keep writing durably
	// after the "kill", a failure mode no single-process deployment has.
	watcherStop := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctrl.Crashed():
			for _, l := range st.Logs() {
				l.Crash()
			}
		case <-watcherStop:
		}
	}()
	var acks tpcc.AckLog
	acked := drive(w, cfg, cfg.Seed, maxOps, ctrl.Crashed(), &acks)
	close(watcherStop)
	<-watcherDone
	fault.Deactivate()

	res := &CrashResult{Acked: acked}
	for _, l := range st.Logs() {
		if crashes && ctrl.FiredPoint() != "" {
			// Deterministic backstop for the watcher's race window — and it
			// keeps st.Close (whose Engine.Close forces the log) from making
			// healthy partitions' post-crash tails durable.
			l.Crash()
		} else {
			// No crash: quiesce cleanly so restart still exercises Open.
			l.Force()
		}
	}
	if crashes {
		res.Fired = ctrl.FiredPoint() == cfg.Point.Name
	} else {
		res.Fired = ctrl.Hits(cfg.Point.Name) > 0
	}
	st.Close()

	// Phase 2: restart — fresh base state per partition (same seed, so
	// byte-identical to the doomed system's starting point), reopened logs,
	// per-partition recovery plus the coordinator completion pass.
	st, w, err = buildCrashSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for p, l := range st.Logs() {
		if tt := l.TornTail(); tt != nil && !tt.Clean() {
			return res, fmt.Errorf("experiment: partition %d crash left corrupt (not torn) log: %w", p, tt)
		}
	}
	rres, err := st.Set.Recover()
	if err != nil {
		return res, err
	}
	res.ForwardDriven = len(rres.ForwardDriven)
	res.Undone = len(rres.Undone)
	for _, pr := range rres.Partitions {
		res.Committed += pr.Committed
		res.Compensated += len(pr.Compensated)
		if res.TornTail == nil {
			res.TornTail = pr.TornTail
		}
		// The fresh workload's hole record starts as what the logs imply.
		w.MergeHoles(tpcc.HolesFromRecovery(pr))
	}
	res.Violations = st.Check(w.Holes())
	res.LostAcks = acks.Lost(st.DBs())

	// Phase 3: the recovered set re-admits load against the same logs.
	w.AdvanceHistoryID(1 << 20)
	res.RerunCompleted = drive(w, cfg, cfg.Seed^0x5eedca5e, cfg.RerunOps, nil, nil)
	for _, l := range st.Logs() {
		l.Force()
	}
	res.RerunViolations = st.Check(w.Holes())
	return res, nil
}
