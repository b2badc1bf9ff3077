// Command bench is the repository's benchmark ledger (ISSUE 11): four TPC-C
// workloads — three through a real accd child over loopback TCP, one on the
// paper's in-process contention testbed — reported as the end-to-end and
// per-layer metrics BENCHMARK.json names. README.md in this directory is the
// long form: workload rationale, metric catalogue, calibration, known gaps.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	        one workload, one JSON result line (the driver's contract);
//	        --trace 0 prints the end-to-end metrics, --trace 1 re-runs the
//	        workload traced and prints the per-layer metrics
//	go run ./bench -all [-out FILE]
//	        every workload, both passes, three runs each, one ledger document
//	go run ./bench -compare A.json B.json
//	        gate ledger B against ledger A
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricSpec and benchmarkSpec mirror BENCHMARK.json, which is the metric
// catalogue: the program reads names, units, directions and bounds from it
// rather than keeping a second list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// readCatalogue reads BENCHMARK.json from the checkout root.
func readCatalogue(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func (b *benchmarkSpec) workloadNames() []string {
	names := make([]string, len(b.Workloads))
	for i, w := range b.Workloads {
		names[i] = w.Name
	}
	return names
}

// env is what every workload runs in.
type env struct {
	root    string // checkout root
	accdBin string
	spec    benchmarkSpec
	conns   int // generator GOMAXPROCS and client pool size
	// short shrinks warm-ups and probe budgets to the minimum that still
	// exercises every code path; only the smoke test sets it.
	short bool
}

func (e *env) warmup(d time.Duration) time.Duration {
	if e.short {
		return 200 * time.Millisecond
	}
	return d
}

// medianSetup is setup_s. once sets the system up, tears it down again and
// returns how long the set-up took; it is repeated at least nine times and
// until two seconds have gone into it, so a cheap set-up is repeated more
// often: the 30ms in-process one needs some 25 repetitions before its median
// repeats. A collection first gives every repetition the same heap to start
// from, which matters when the set-up happens in this process.
func (e *env) medianSetup(once func() (time.Duration, error)) (float64, error) {
	var took []float64
	for start := time.Now(); len(took) < 9 || time.Since(start) < 2*time.Second; {
		runtime.GC()
		d, err := once()
		if err != nil {
			return 0, err
		}
		took = append(took, d.Seconds())
		if e.short {
			break
		}
	}
	return median(took), nil
}

// newEnv locates the checkout, reads the catalogue, builds accd and pins the
// generator to min(nproc, 4) threads and connections: the terminals are
// goroutines blocked on pipelined replies, so the generator never needs more.
func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, conns: min(runtime.NumCPU(), 4)}
	if e.spec, err = readCatalogue(root); err != nil {
		return nil, err
	}
	if e.accdBin, err = buildAccd(root); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(e.conns)
	return e, nil
}

// result is one run of one workload in one trace mode.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result object, and the ledger's per-pass entry.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report shapes r to the catalogue: exactly the specs' names, each with its
// unit. An end-to-end metric the run did not measure is an error; the
// end-to-end pass measures a few more figures than the catalogue admits as
// end-to-end metrics, and those are dropped. A per-layer metric the run did
// not measure reads 0 — that layer is not on this workload's path (no wire
// under fig_contended, no coordinator under one partition); the smoke test
// checks every name is measured somewhere — and a measured per-layer name the
// catalogue lacks is an error: a typo must not vanish.
func (r *result) report(specs []metricSpec, endToEnd bool) (*report, error) {
	out := &report{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, s := range specs {
		known[s.Name] = true
		v, ok := r.metrics[s.Name]
		if !ok && endToEnd {
			return nil, fmt.Errorf("bench: end-to-end metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is %v", s.Name, v)
		}
		out.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	for name := range r.metrics {
		if !known[name] && !endToEnd {
			return nil, fmt.Errorf("bench: measured metric %q is not in BENCHMARK.json", name)
		}
	}
	if r.attempted < 1 {
		return nil, errors.New("bench: nothing attempted")
	}
	return out, nil
}

// measure executes one workload in one trace mode.
func (e *env) measure(workload string, seed int64, seconds int, traced bool) (*result, error) {
	interval := time.Duration(seconds) * time.Second
	w, isNet := netWorkloads[workload]
	switch {
	case isNet && !traced:
		return e.netEndToEnd(w, seed, interval)
	case isNet:
		return e.netLayers(workload, w, seed, interval)
	case workload == figWorkload && !traced:
		return e.figEndToEnd(seed, interval)
	case workload == figWorkload:
		return e.figLayers(seed, interval)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", workload, strings.Join(e.spec.workloadNames(), ", "))
}

// run is measure shaped to the catalogue.
func (e *env) run(workload string, seed int64, seconds int, traced bool) (*report, error) {
	r, err := e.measure(workload, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		return r.report(e.spec.PerLayer, false)
	}
	return r.report(e.spec.EndToEnd, true)
}

// ledger is the document -all writes and -compare reads.
type ledger struct {
	Issue     int                       `json:"issue"`
	Meta      ledgerMeta                `json:"meta"`
	Workloads map[string]ledgerWorkload `json:"workloads"`
	// Claim is what the change that produced this ledger claims to have
	// gained. The change that defines the benchmark claims nothing.
	Claim *string `json:"claim"`
}

// ledgerMeta records where and how a ledger was taken. Two ledgers are
// comparable only if they measured the same interval the same number of
// times; the rest is for the reader.
type ledgerMeta struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Count      int    `json:"count"` // runs behind each median
	Terminals  int    `json:"terminals"`
}

type ledgerWorkload struct {
	EndToEnd *report `json:"end_to_end"`
	PerLayer *report `json:"per_layer"`
}

// ledgerRuns is how many times -all runs each workload in each mode; the
// ledger keeps per metric the median over them, because one run says little
// on a shared host. A constant, so that any two ledgers are medians of the
// same number of runs; -compare refuses ledgers whose meta says otherwise.
const ledgerRuns = 3

// all runs every workload in both modes, ledgerRuns times each. Round i uses
// seed+i, so a ledger's numbers do not hinge on one input stream.
func (e *env) all(seed int64, seconds int) (*ledger, error) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	l := &ledger{
		Issue: 11,
		Meta: ledgerMeta{
			NProc: runtime.NumCPU(), GoMaxProcs: e.conns, Go: runtime.Version(), Commit: commit,
			Seed: seed, Seconds: seconds, Count: ledgerRuns, Terminals: terminals,
		},
		Workloads: map[string]ledgerWorkload{},
	}
	// Rounds are the outer loop: this host's speed drifts over minutes, so a
	// workload's runs are spread over the whole session instead of sharing
	// one mood of the host.
	type pass struct {
		workload string
		traced   bool
	}
	runs := map[pass][]*report{}
	for i := 0; i < ledgerRuns; i++ {
		for _, name := range e.spec.workloadNames() {
			for _, traced := range []bool{false, true} {
				r, err := e.run(name, seed+int64(i), seconds, traced)
				if err != nil {
					return nil, fmt.Errorf("%s (trace %v, run %d): %w", name, traced, i, err)
				}
				runs[pass{name, traced}] = append(runs[pass{name, traced}], r)
			}
		}
	}
	for _, name := range e.spec.workloadNames() {
		l.Workloads[name] = ledgerWorkload{
			EndToEnd: medianReport(runs[pass{name, false}]),
			PerLayer: medianReport(runs[pass{name, true}]),
		}
	}
	return l, nil
}

// medianReport folds several runs into one: per metric the median value,
// attempted and failed summed.
func medianReport(runs []*report) *report {
	out := &report{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for name, first := range runs[0].Metrics {
		values := make([]float64, len(runs))
		for i, r := range runs {
			values[i] = r.Metrics[name].Value
		}
		out.Metrics[name] = metricValue{median(values), first.Unit}
	}
	return out
}

func main() {
	if err := mainErr(); err != nil {
		killChildren()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "run this one workload and print the contract's result line")
		seed     = flag.Int64("seed", 1, "input seed: passed to accd -seed and to the generator")
		seconds  = flag.Int("seconds", 0, "measured interval (default: BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced re-run, per-layer metrics")
		all      = flag.Bool("all", false, "run every workload in both modes and write one ledger document")
		out      = flag.String("out", "", "with -all: write the ledger here instead of standard output")
		compare  = flag.Bool("compare", false, "compare two ledger files (old new): exit non-zero on a regression")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("bench: -compare takes two ledger files: old new")
		}
		return compareLedgers(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("bench: unexpected arguments %q", flag.Args())
	}
	if *all == (*workload != "") {
		return errors.New("bench: give exactly one of -workload NAME, -all, -compare OLD NEW")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("bench: -trace %d: want 0 or 1", *trace)
	}

	// A signal must not orphan an accd child.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(1)
	}()

	e, err := newEnv()
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = e.spec.RunSeconds
	}
	if *seconds < 1 {
		return fmt.Errorf("bench: -seconds %d: want at least 1", *seconds)
	}

	var data []byte
	if *all {
		l, err := e.all(*seed, *seconds)
		if err != nil {
			return err
		}
		if data, err = json.MarshalIndent(l, "", "  "); err != nil {
			return err
		}
	} else {
		r, err := e.run(*workload, *seed, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		if data, err = json.Marshal(r); err != nil {
			return err
		}
	}
	data = append(data, '\n')
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	_, err = os.Stdout.Write(data)
	return err
}
