package experiment

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/core"
	"accdb/internal/tpcc"
)

// Terminals is the testbed's closed loop (§5.2): each terminal thinks, draws
// a transaction from a workload, runs it and reports it, over and over, so
// the offered load scales with the terminal count as in Figures 2-4. The
// figures, the crash matrix and accbench -net all run it.
type Terminals struct {
	N int // terminal count
	// Think is the mean exponential think time before each draw; 0: none.
	Think time.Duration
	// Seed: terminal t draws from Seed + 7919t.
	Seed int64
	// Ops, when positive, bounds the transactions started by all terminals.
	Ops int
	// Stop, once closed, ends the loop after each terminal's running
	// transaction.
	Stop <-chan struct{}
	// Done, when non-nil, receives each outcome and response time; the
	// terminals call it concurrently.
	Done func(name string, args any, out core.Outcome, rt time.Duration)
}

// Drive runs the terminals over w and returns once every one has stopped.
func (l Terminals) Drive(w *tpcc.Workload) {
	var started atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < l.N; t++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(l.Seed + int64(term)*7919))
			for {
				select {
				case <-l.Stop:
					return
				default:
				}
				if l.Ops > 0 && started.Add(1) > int64(l.Ops) {
					return
				}
				if l.Think > 0 {
					select {
					case <-l.Stop:
						return
					case <-time.After(time.Duration(r.ExpFloat64() * float64(l.Think))):
					}
				}
				name, args := w.DrawArgs(r, term)
				start := time.Now()
				err := w.Run(name, args)
				if l.Done != nil {
					l.Done(name, args, core.OutcomeOf(err), time.Since(start))
				}
			}
		}(t)
	}
	wg.Wait()
}

// Measure drives the terminals over w for warmup and then for duration, and
// returns the response times recorded in the measured interval and the
// completions per second in it. Transactions of the warm-up complete but are
// not recorded; l's Stop and Done are Measure's own.
func (l Terminals) Measure(w *tpcc.Workload, warmup, duration time.Duration) (*Recorder, float64) {
	rec := NewRecorder()
	var recording atomic.Bool
	stop := make(chan struct{})
	l.Stop = stop
	l.Done = func(name string, _ any, out core.Outcome, rt time.Duration) {
		if recording.Load() {
			rec.Record(name, rt, out)
		}
	}
	stopped := make(chan struct{})
	go func() {
		l.Drive(w)
		close(stopped)
	}()
	time.Sleep(warmup)
	recording.Store(true)
	start := time.Now()
	time.Sleep(duration)
	recording.Store(false)
	elapsed := time.Since(start)
	close(stop)
	<-stopped
	return rec, float64(rec.Count()) / elapsed.Seconds()
}
