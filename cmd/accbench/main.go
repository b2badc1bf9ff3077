// Command accbench regenerates the paper's §5 experiments: for each figure
// it sweeps the terminal count (or server count), measures the unmodified
// strict-2PL system and the ACC under identical TPC-C loads, and prints the
// non-ACC/ACC ratio series the paper plots.
//
// Usage:
//
//	accbench -experiment fig2|fig3|fig4|servers|all [flags]
//
// The defaults reproduce the paper's operating region at laptop scale; see
// EXPERIMENTS.md for recorded results.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "accdb/internal/backends"
	"accdb/internal/core"
	"accdb/internal/debughttp"
	"accdb/internal/experiment"
	"accdb/internal/spi"
	"accdb/internal/trace"
)

// experiments names the runs -experiment selects from; "all" runs each.
var experiments = []string{"fig2", "fig3", "fig4", "servers"}

// checkExperiment rejects a name -experiment would match nothing with: a
// typo must not print nothing and exit 0, or a CI step passes without
// running.
func checkExperiment(name string) error {
	if name == "all" {
		return nil
	}
	for _, e := range experiments {
		if name == e {
			return nil
		}
	}
	return fmt.Errorf("unknown -experiment %q (want %s or all)", name, strings.Join(experiments, ", "))
}

func main() {
	var (
		which    = flag.String("experiment", "all", strings.Join(experiments, " | ")+" | all")
		duration = flag.Duration("duration", 6*time.Second, "measured interval per point per system")
		warmup   = flag.Duration("warmup", 1*time.Second, "warmup before measuring")
		think    = flag.Duration("think", 800*time.Millisecond, "mean terminal think time")
		service  = flag.Duration("service", 600*time.Microsecond, "per-statement server CPU time")
		compute  = flag.Duration("compute", 500*time.Microsecond, "fig3 inter-statement compute time")
		force    = flag.Duration("force", 100*time.Microsecond, "log force latency")
		servers  = flag.Int("servers", 3, "database server processes")
		skew     = flag.Float64("skew", 0.5, "fig2 hot-district probability for the skewed curve")
		seed     = flag.Int64("seed", 1, "workload seed")
		termList = flag.String("terminals", "", "comma-separated terminal counts (default 4,8,16,24,32,48,60)")
		verbose  = flag.Bool("v", false, "print per-system detail")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/locks, /debug/waitsfor, /debug/anatomy and /debug/pprof on this address (e.g. :6060)")
		walDir   = flag.String("wal-dir", "", "back the log with CRC-framed segment files in this directory instead of the in-memory log")
		groupWin = flag.Duration("group-commit", 0, "with -wal-dir: group-commit window; a force leader waits this long so concurrent commits share one sync (0 disables)")
		faultPt  = flag.String("fault", "", "run one crash-matrix case: trip this fault point (see -fault list) mid-load, recover, verify; 'all' runs every point, 'list' prints the catalog")
		faultNth = flag.Uint64("fault-nth", 3, "fire the -fault point on its nth hit")
		faultSd  = flag.Int64("fault-seed", 42, "seed for the -fault controller and load (a (point, seed, nth) triple replays exactly)")
		netAddr  = flag.String("net", "", "drive TPC-C over the wire against a running accd at this address instead of in-process")
		netTerms = flag.Int("net-terminals", 64, "terminal count for -net")
		netPool  = flag.Int("net-pool", 8, "client connection pool size for -net")
		netWhs   = flag.Int("net-warehouses", 0, "with -net: generate load across this many warehouses (match the server's partition count; 0 keeps the default scale)")
		netRem   = flag.Int("net-remote-pct", 0, "with -net: percentage of new-orders with a remote supply warehouse (cross-partition on a partitioned accd)")
		slowThr  = flag.Duration("slow-txn-threshold", 0, "dump any transaction slower than this to -slow-txn-log as JSONL, with its full stage breakdown and event history (0 disables)")
		slowLog  = flag.String("slow-txn-log", "slow-txns.jsonl", "destination for -slow-txn-threshold dumps")
		tierName = flag.String("read-tier", "locked", "consistency tier for the read-only types (order-status, stock-level): locked | snapshot")
		readHvy  = flag.Bool("read-heavy", false, "swap the TPC-C mix for the read-heavy mix (mostly order-status/stock-level over a thin writer stream)")
	)
	flag.Parse()

	if err := checkExperiment(*which); err != nil {
		fatal(err)
	}
	tier, err := core.ParseReadTier(*tierName)
	if err != nil {
		fatal(err)
	}

	if *faultPt != "" {
		runFault(*faultPt, *faultNth, *faultSd, *walDir)
		return
	}

	if *netAddr != "" {
		if err := runNet(*netAddr, *netTerms, *netPool, *duration, *warmup, *think, *seed, tier, *netWhs, *netRem, *readHvy, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	cfg := experiment.Defaults()
	cfg.Duration = *duration
	cfg.Warmup = *warmup
	cfg.ThinkTime = *think
	cfg.ServiceTime = *service
	cfg.ForceLatency = *force
	cfg.Servers = *servers
	cfg.Seed = *seed
	cfg.WALDir = *walDir
	cfg.GroupWindow = *groupWin
	cfg.ReadTier = tier
	cfg.ReadHeavy = *readHvy

	// The latency-anatomy layer turns on with either consumer: the debug
	// endpoint's live histograms, or the slow-transaction flight recorder.
	if *metrics != "" || *slowThr > 0 {
		acfg := trace.AnatomyConfig{SlowThreshold: *slowThr}
		if *slowThr > 0 {
			f, err := os.Create(*slowLog)
			if err != nil {
				fatal(err)
			}
			acfg.SlowWriter = f
		}
		cfg.Anatomy = trace.NewAnatomy(acfg)
	}
	if *metrics != "" {
		dbg := debughttp.New(cfg.Anatomy)
		if err := dbg.Start(*metrics); err != nil {
			fatal(err)
		}
		cfg.OnEngine = func(e *core.Engine) { dbg.SetEngines(e) }
	}

	terminals := experiment.DefaultTerminals
	if *termList != "" {
		terminals = nil
		for _, part := range strings.Split(*termList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(err)
			}
			terminals = append(terminals, n)
		}
	}

	run := func(name string) bool { return *which == "all" || *which == name }

	if run("fig2") {
		fmt.Println("== Figure 2: The Effect of Hotspots ==")
		fmt.Println("-- standard (uniform districts) --")
		sweepAndPrint(cfg, terminals, *verbose)
		fmt.Printf("-- skewed (hot district p=%.2f) --\n", *skew)
		c := cfg
		c.Skew = *skew
		sweepAndPrint(c, terminals, *verbose)
	}
	if run("fig3") {
		fmt.Println("== Figure 3: The Effect of Transaction Duration ==")
		fmt.Println("-- without compute time --")
		sweepAndPrint(cfg, terminals, *verbose)
		fmt.Printf("-- with %v compute time between statements --\n", *compute)
		c := cfg
		c.ComputeTime = *compute
		sweepAndPrint(c, terminals, *verbose)
	}
	if run("fig4") {
		fmt.Println("== Figure 4: Response Time and Throughput ==")
		points, err := experiment.Sweep(cfg, terminals)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%10s %12s %12s\n", "terminals", "resp ratio", "tput ratio")
		for _, p := range points {
			fmt.Printf("%10d %12.3f %12.3f\n", p.Terminals, p.RespRatio(), p.TputRatio())
			detail(p, *verbose)
		}
	}
	if run("servers") {
		fmt.Println("== Experiment 4: The Effect of the Number of Servers ==")
		c := cfg
		c.Terminals = 48
		points, err := experiment.ServerSweep(c, []int{1, 2, 3, 4})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%10s %12s %12s\n", "servers", "resp ratio", "tput ratio")
		for _, p := range points {
			fmt.Printf("%10d %12.3f %12.3f\n", p.Servers, p.RespRatio(), p.TputRatio())
			detail(p, *verbose)
		}
	}
}

func sweepAndPrint(cfg experiment.Config, terminals []int, verbose bool) {
	points, err := experiment.Sweep(cfg, terminals)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%10s %12s %14s %14s\n", "terminals", "resp ratio", "base mean", "acc mean")
	for _, p := range points {
		fmt.Printf("%10d %12.3f %14v %14v\n",
			p.Terminals, p.RespRatio(),
			p.Baseline.Mean.Round(time.Microsecond), p.ACC.Mean.Round(time.Microsecond))
		detail(p, verbose)
	}
}

func detail(p *experiment.Point, verbose bool) {
	if !verbose {
		return
	}
	fmt.Printf("%10s   base: n=%d tput=%.1f/s deadlocks=%d retries=%d\n", "",
		p.Baseline.Completed, p.Baseline.Throughput, p.Baseline.Locks.Deadlocks, p.Baseline.Engine.TxnRetries)
	fmt.Printf("%10s   acc:  n=%d tput=%.1f/s deadlocks=%d stepRetries=%d compensations=%d\n", "",
		p.ACC.Completed, p.ACC.Throughput, p.ACC.Locks.Deadlocks, p.ACC.Engine.StepRetries, p.ACC.Engine.Compensations)
	for _, r := range []*experiment.RunResult{p.Baseline, p.ACC} {
		avg := time.Duration(0)
		if r.Locks.Waits > 0 {
			avg = time.Duration(r.Locks.WaitNanos / r.Locks.Waits)
		}
		fmt.Printf("%10s   %-9s locks: acq=%d waits=%d avgWait=%v\n", "",
			r.Mode, r.Locks.Acquisitions, r.Locks.Waits, avg.Round(time.Microsecond))
		type kv struct {
			k string
			v spi.ClassStats
		}
		var classes []kv
		for k, v := range r.LockClass {
			classes = append(classes, kv{k, v})
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i].v.WaitNanos > classes[j].v.WaitNanos })
		for i, c := range classes {
			if i >= 4 {
				break
			}
			fmt.Printf("%10s     %-36s waits=%-5d total=%v\n", "",
				c.k, c.v.Waits, time.Duration(c.v.WaitNanos).Round(time.Millisecond))
		}
	}
	for _, name := range []string{"new_order", "payment", "delivery", "order_status", "stock_level"} {
		b, a := p.Baseline.ByType[name], p.ACC.ByType[name]
		fmt.Printf("%10s   %-12s base n=%-5d mean=%-12v | acc n=%-5d mean=%v\n", "",
			name, b.Count, b.Mean.Round(time.Microsecond), a.Count, a.Mean.Round(time.Microsecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accbench:", err)
	os.Exit(1)
}
