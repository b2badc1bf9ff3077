// Package sim reproduces the paper's experimental testbed (§5.2): a set of
// terminal goroutines in a closed loop submitting transactions against a
// pool of database server processes, with configurable statement service
// time, inter-statement compute time, and terminal think time.
//
// The mapping to the paper's environment:
//
//   - Env models the database server processes. A statement's CPU phase must
//     hold one of k server tokens; lock waits and (simulated) log I/O do
//     not, matching a multi-threaded server whose blocked sessions yield.
//   - Env.Compute models the paper's Figure-3 knob: "adding several
//     milliseconds of compute time between successive SQL statements".
//     Compute time is charged while locks are held, which is what stretches
//     lock duration.
//   - Terminals think between transactions (exponentially distributed), so
//     the offered load scales with the terminal count, as in Figures 2-4.
package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/metrics"
)

// Env implements core.ExecEnv: a server pool with per-statement service
// time. The zero value executes statements inline at zero cost.
type Env struct {
	tokens  chan struct{}
	service time.Duration
	compute time.Duration

	statements atomic.Uint64
}

// NewEnv creates an environment with `servers` database server processes,
// the given CPU service time per statement, and the given inter-statement
// compute time.
func NewEnv(servers int, service, compute time.Duration) *Env {
	e := &Env{service: service, compute: compute}
	if servers > 0 {
		e.tokens = make(chan struct{}, servers)
		for i := 0; i < servers; i++ {
			e.tokens <- struct{}{}
		}
	}
	return e
}

// BeginStatement opens one statement's CPU phase on a server: it counts the
// statement, acquires a server token and holds it for the service time; the
// engine then runs the data operation and calls EndStatement. The service
// time is slept, not spun: the token pool is what models server occupancy,
// and sleeping keeps the simulation honest on hosts with fewer cores than
// simulated servers.
func (e *Env) BeginStatement() {
	e.statements.Add(1)
	if e.tokens != nil {
		<-e.tokens
	}
	if e.service > 0 {
		time.Sleep(e.service)
	}
}

// EndStatement returns the server token BeginStatement took.
func (e *Env) EndStatement() {
	if e.tokens != nil {
		e.tokens <- struct{}{}
	}
}

// Compute charges the application's inter-statement compute time. It does
// not hold a server token (the computation happens in the application), but
// the caller's locks remain held — that is the point of the experiment.
func (e *Env) Compute() {
	if e.compute > 0 {
		time.Sleep(e.compute)
	}
}

// Statements returns the number of statements executed.
func (e *Env) Statements() uint64 { return e.statements.Load() }

// Txn is one generated transaction ready to execute.
type Txn struct {
	// Type is the transaction type name, used to group metrics.
	Type string
	// Run executes the transaction and reports its outcome.
	Run func() (metrics.Outcome, error)
}

// Generator produces the next transaction for a terminal. Implementations
// must be safe for concurrent use; each terminal passes its own *rand.Rand.
type Generator interface {
	Next(r *rand.Rand, terminal int) Txn
}

// GeneratorFunc adapts a function to Generator.
type GeneratorFunc func(r *rand.Rand, terminal int) Txn

// Next implements Generator.
func (f GeneratorFunc) Next(r *rand.Rand, terminal int) Txn { return f(r, terminal) }

// Config parameterizes a closed-loop run.
type Config struct {
	// Terminals is the number of concurrent terminal goroutines.
	Terminals int
	// Duration is the measured interval.
	Duration time.Duration
	// Warmup runs before measurement starts; its transactions complete but
	// are not recorded.
	Warmup time.Duration
	// ThinkTime is the mean of the exponential think time between
	// transactions; zero means no thinking.
	ThinkTime time.Duration
	// Seed makes terminal input streams reproducible.
	Seed int64
}

// Result is the outcome of a run.
type Result struct {
	// Recorder holds per-type and total response-time summaries.
	Recorder *metrics.Recorder
	// Elapsed is the measured wall-clock interval.
	Elapsed time.Duration
	// Completed is the number of measured completions.
	Completed int
}

// Throughput returns completed transactions per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// Run drives the closed loop: each terminal repeatedly thinks, draws a
// transaction from gen, executes it, and records its response time.
func Run(cfg Config, gen Generator) *Result {
	rec := metrics.NewRecorder()
	var recording atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for t := 0; t < cfg.Terminals; t++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(term)*7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cfg.ThinkTime > 0 {
					think := time.Duration(r.ExpFloat64() * float64(cfg.ThinkTime))
					select {
					case <-stop:
						return
					case <-time.After(think):
					}
				}
				txn := gen.Next(r, term)
				start := time.Now()
				outcome, _ := txn.Run()
				if recording.Load() {
					rec.Record(txn.Type, time.Since(start), outcome)
				}
			}
		}(t)
	}

	if cfg.Warmup > 0 {
		time.Sleep(cfg.Warmup)
	}
	recording.Store(true)
	measureStart := time.Now()
	time.Sleep(cfg.Duration)
	recording.Store(false)
	elapsed := time.Since(measureStart)
	close(stop)
	wg.Wait()

	return &Result{Recorder: rec, Elapsed: elapsed, Completed: rec.Count()}
}
