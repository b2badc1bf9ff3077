package experiment

import (
	"fmt"
	"sync"
	"time"

	"accdb/internal/core"
	"accdb/internal/metrics"
)

// Recorder accumulates the terminals' response times per transaction type,
// tallied by the outcome the engine classified (core.OutcomeOf). It is safe
// for concurrent use by terminal goroutines.
type Recorder struct {
	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	hist      metrics.Histogram
	errors    int
	rollbacks int
	deadlocks int
	timeouts  int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*series)}
}

// Record adds one finished transaction's response time. Rollbacks
// (compensated or aborted) count as completions — the terminal got an answer
// — but are tallied separately; every other failure is left out of the
// response-time population, with deadlock victims and lock-wait timeouts
// counted apart from the generic error tally.
func (r *Recorder) Record(txnType string, d time.Duration, out core.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[txnType]
	if !ok {
		s = &series{}
		r.series[txnType] = s
	}
	switch out {
	case core.OutcomeOK:
		s.hist.Observe(d)
	case core.OutcomeCompensated, core.OutcomeAborted:
		s.hist.Observe(d)
		s.rollbacks++
	case core.OutcomeDeadlock:
		s.deadlocks++
	case core.OutcomeLockTimeout:
		s.timeouts++
	default:
		s.errors++
	}
}

// Summary describes one series (or the merged total).
type Summary struct {
	Count     int
	Rollbacks int
	Errors    int
	Deadlocks int
	Timeouts  int
	Mean      time.Duration
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	Max       time.Duration
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v rollbacks=%d errors=%d deadlocks=%d timeouts=%d",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond), s.Rollbacks, s.Errors, s.Deadlocks, s.Timeouts)
}

// summarize reduces one series to its summary.
func summarize(s *series) Summary {
	out := Summary{
		Count:     int(s.hist.Count()),
		Rollbacks: s.rollbacks,
		Errors:    s.errors,
		Deadlocks: s.deadlocks,
		Timeouts:  s.timeouts,
	}
	if out.Count == 0 {
		return out
	}
	out.Mean = s.hist.Mean()
	out.P50 = s.hist.Quantile(0.50)
	out.P95 = s.hist.Quantile(0.95)
	out.P99 = s.hist.Quantile(0.99)
	out.Max = s.hist.Max()
	return out
}

// ByType returns one summary per transaction type.
func (r *Recorder) ByType() map[string]Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Summary, len(r.series))
	for name, s := range r.series {
		out[name] = summarize(s)
	}
	return out
}

// Total returns the merged summary over all types — the paper's "total
// average response time" metric.
func (r *Recorder) Total() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all series
	for _, s := range r.series {
		all.hist.Merge(&s.hist)
		all.errors += s.errors
		all.rollbacks += s.rollbacks
		all.deadlocks += s.deadlocks
		all.timeouts += s.timeouts
	}
	return summarize(&all)
}

// Count returns the number of completed (committed or rolled back)
// transactions — the throughput numerator.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(0)
	for _, s := range r.series {
		n += s.hist.Count()
	}
	return int(n)
}
