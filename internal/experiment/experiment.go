// Package experiment assembles full systems (storage + lock manager + WAL +
// scheduler + TPC-C + the testbed's cost model and terminal loop) and reruns
// the paper's §5 experiments: for each configuration it drives identical
// closed-loop loads against the unmodified (baseline, strict-2PL
// serializable) system and the ACC, and reports the non-ACC/ACC ratios
// plotted in Figures 2-4, plus the server-count experiment described in the
// text.
package experiment

import (
	"fmt"
	"time"

	_ "accdb/internal/backends"
	"accdb/internal/core"
	"accdb/internal/spi"
	"accdb/internal/tpcc"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

// Config parameterizes one run of one system.
type Config struct {
	Mode core.Mode
	// Terminals is the closed-loop population (the x-axis of Figures 2-4).
	Terminals int
	// Servers is the database server pool size (3 in Figures 2-4; swept in
	// the fourth experiment).
	Servers int
	// ServiceTime is the CPU cost of one SQL statement on a server.
	ServiceTime time.Duration
	// ComputeTime is the Figure-3 knob: per-statement application compute
	// time inside new-order and delivery, charged while locks are held.
	ComputeTime time.Duration
	// ThinkTime is the mean exponential terminal think time.
	ThinkTime time.Duration
	// ForceLatency is the simulated log-force I/O time. Neither scheduler
	// forces at a step boundary: a writing transaction pays it at most once,
	// before its reply.
	ForceLatency time.Duration
	// Skew is the extra probability mass on district 1 (Figure 2's
	// "Skewed" curve).
	Skew float64
	// ReadTier, when core.TierSnapshot, routes the mix's read-only types
	// (order-status, stock-level) through the lock-free versioned read path.
	ReadTier core.ReadTier
	// ReadHeavy swaps the TPC-C §5.2.3 mix for tpcc.ReadHeavyMix — mostly
	// read-only probes over a thin writer stream, the read-tier experiment's
	// operating point.
	ReadHeavy bool

	Scale    tpcc.Scale
	Duration time.Duration
	Warmup   time.Duration
	Seed     int64

	// RollbackPercent overrides the share of new-orders that abort via an
	// unused item number; zero means the benchmark default (1%). Raising it
	// exercises the compensation path.
	RollbackPercent int
	// Anatomy, when non-nil, records a latency-anatomy span per transaction
	// (engine-owned spans: the whole run is the engine phase), feeding the
	// per-stage histograms and the slow-transaction flight recorder.
	Anatomy *trace.Anatomy
	// OnEngine, when non-nil, is called with the freshly built engine before
	// the load starts — the hook the live debug endpoints use to observe the
	// system mid-run.
	OnEngine func(*core.Engine)
	// WALDir, when non-empty, backs the engine's log with CRC-framed segment
	// files under WALDir/p0 (the stack's one layout) instead of the in-memory
	// log; the engine then pays real write+fsync per force on top of
	// ForceLatency.
	WALDir string
	// GroupWindow, with WALDir set, enables cross-terminal group commit: a
	// force leader waits this long so concurrent commits share one sync.
	GroupWindow time.Duration
}

// Defaults fills a baseline parameterization that reproduces the paper's
// operating region at laptop scale: three servers, contention concentrated
// on the warehouse/district rows, saturation setting in around 16-24
// terminals.
func Defaults() Config {
	return Config{
		Mode:         core.ModeACC,
		Terminals:    16,
		Servers:      3,
		ServiceTime:  600 * time.Microsecond,
		ComputeTime:  0,
		ThinkTime:    800 * time.Millisecond,
		ForceLatency: 100 * time.Microsecond,
		Scale:        tpcc.DefaultScale(),
		Duration:     5 * time.Second,
		Warmup:       1 * time.Second,
		Seed:         1,
	}
}

// RunResult captures one system's measurements.
type RunResult struct {
	Mode       core.Mode
	Mean       time.Duration
	P95        time.Duration
	Completed  int
	Throughput float64
	ByType     map[string]Summary
	Engine     core.Stats
	Locks      spi.LockStats
	LockClass  map[string]spi.ClassStats
	Consistent bool
	Violations []error
}

// Run builds a fresh system per the config — the same one-partition
// tpcc.Stack accd serves and the crash matrix crashes, here with the
// testbed's cost model (core.Env) — applies the Terminals load,
// verifies the twelve-component consistency constraint afterwards, and
// returns the measurements.
func Run(cfg Config) (*RunResult, error) {
	st, err := tpcc.NewStack(tpcc.StackConfig{
		Partitions: 1,
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		WALDir:     cfg.WALDir,
		WAL:        wal.Options{ForceLatency: cfg.ForceLatency, GroupWindow: cfg.GroupWindow},
		Engine: []core.Option{
			core.WithMode(cfg.Mode),
			core.WithWaitTimeout(30 * time.Second),
			core.WithEnv(core.NewEnv(cfg.Servers, cfg.ServiceTime, cfg.ComputeTime)),
			core.WithAnatomy(cfg.Anatomy),
		},
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	eng := st.Set.Engine(0)
	if cfg.OnEngine != nil {
		cfg.OnEngine(eng)
	}
	wcfg := tpcc.DefaultWorkloadConfig(st.Scale)
	wcfg.DistrictSkew = cfg.Skew
	wcfg.ReadTier = cfg.ReadTier
	if cfg.ReadHeavy {
		wcfg.Mix = tpcc.ReadHeavyMix()
	}
	if cfg.RollbackPercent > 0 {
		wcfg.RollbackPercent = cfg.RollbackPercent
	}
	w := tpcc.NewWorkload(st.Set, wcfg)

	rec, perSec := Terminals{N: cfg.Terminals, Think: cfg.ThinkTime, Seed: cfg.Seed}.
		Measure(w, cfg.Warmup, cfg.Duration)

	total := rec.Total()
	violations := st.Check(w.Holes())
	return &RunResult{
		Mode:       cfg.Mode,
		ByType:     rec.ByType(),
		Mean:       total.Mean,
		P95:        total.P95,
		Completed:  rec.Count(),
		Throughput: perSec,
		Engine:     eng.Snapshot(),
		Locks:      eng.Locks().Stats(),
		LockClass:  eng.Locks().ByClass(),
		Consistent: len(violations) == 0,
		Violations: violations,
	}, nil
}

// Point is one x-position of a figure: both systems measured under the same
// load, expressed as the paper's ratios.
type Point struct {
	Terminals int
	Servers   int
	Baseline  *RunResult
	ACC       *RunResult
}

// RespRatio is the ordinate of Figures 2 and 3: baseline mean response time
// over ACC mean response time (>1 means the ACC is faster).
func (p *Point) RespRatio() float64 {
	if p.ACC.Mean == 0 {
		return 0
	}
	return float64(p.Baseline.Mean) / float64(p.ACC.Mean)
}

// TputRatio is Figure 4's second series: baseline completions over ACC
// completions (<1 means the ACC completed more).
func (p *Point) TputRatio() float64 {
	if p.ACC.Completed == 0 {
		return 0
	}
	return float64(p.Baseline.Completed) / float64(p.ACC.Completed)
}

// Compare measures the baseline and the ACC under identical cfg (Mode is
// overridden per system).
func Compare(cfg Config) (*Point, error) {
	bcfg := cfg
	bcfg.Mode = core.ModeBaseline
	base, err := Run(bcfg)
	if err != nil {
		return nil, err
	}
	acfg := cfg
	acfg.Mode = core.ModeACC
	acc, err := Run(acfg)
	if err != nil {
		return nil, err
	}
	p := &Point{Terminals: cfg.Terminals, Servers: cfg.Servers, Baseline: base, ACC: acc}
	if !base.Consistent {
		return p, fmt.Errorf("experiment: baseline left inconsistent state (stats %+v): %v",
			base.Engine, base.Violations[0])
	}
	if !acc.Consistent {
		return p, fmt.Errorf("experiment: ACC left inconsistent state (stats %+v): %v",
			acc.Engine, acc.Violations[0])
	}
	return p, nil
}

// DefaultTerminals is the sweep of Figures 2-4.
var DefaultTerminals = []int{4, 8, 16, 24, 32, 48, 60}

// Sweep runs Compare at each terminal count.
func Sweep(cfg Config, terminals []int) ([]*Point, error) {
	var out []*Point
	for _, n := range terminals {
		c := cfg
		c.Terminals = n
		p, err := Compare(c)
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ServerSweep runs Compare at each server-pool size (the fourth experiment).
func ServerSweep(cfg Config, servers []int) ([]*Point, error) {
	var out []*Point
	for _, s := range servers {
		c := cfg
		c.Servers = s
		p, err := Compare(c)
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}
