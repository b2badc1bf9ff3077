package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"accdb/internal/metrics"
)

// AnatomyConfig configures an Anatomy.
type AnatomyConfig struct {
	// SlowThreshold marks spans at or above this end-to-end latency as slow:
	// they are counted and, when SlowWriter is set, dumped as one JSONL
	// object each. 0 disables the slow path entirely.
	SlowThreshold time.Duration
	// SlowWriter receives the JSONL dump of slow spans. The Anatomy does not
	// close it.
	SlowWriter io.Writer
	// RingSize is the flight-recorder capacity (default 256).
	RingSize int
}

// defaultRingSize is the flight-recorder capacity when the config leaves it 0.
const defaultRingSize = 256

// SpanRecord is a finished span as retained by the flight recorder: the
// identity, the stage breakdown, and the bounded event history.
type SpanRecord struct {
	Trace   uint64
	Txn     uint64
	Type    string
	Status  string
	When    time.Time // wall-clock span start
	Total   int64     // end-to-end nanoseconds
	Stages  [NumSpanStages]int64
	Events  []SpanEvent
	Dropped uint32
}

// Anatomy is the request-scoped latency-anatomy collector: it pools Spans,
// folds finished spans into per-stage log-bucketed histograms, keeps a
// fixed-size flight-recorder ring of recent spans, and dumps transactions
// exceeding the slow threshold as JSONL. A nil *Anatomy is a valid,
// permanently disabled collector — Start returns a nil *Span and every Span
// method tolerates the nil receiver, so the disabled hot path costs only
// nil checks and zero allocations.
type Anatomy struct {
	cfg  AnatomyConfig
	pool sync.Pool

	mu       sync.Mutex
	stage    [NumSpanStages]metrics.Histogram
	total    metrics.Histogram
	finished uint64
	slowN    uint64
	ring     []SpanRecord
	next     int
	count    int // ring entries populated, ≤ len(ring)
	slowBuf  []byte
	slowErrs uint64
}

// NewAnatomy creates an anatomy collector.
func NewAnatomy(cfg AnatomyConfig) *Anatomy {
	if cfg.RingSize <= 0 {
		cfg.RingSize = defaultRingSize
	}
	a := &Anatomy{cfg: cfg, ring: make([]SpanRecord, cfg.RingSize)}
	a.pool.New = func() any { return &Span{} }
	return a
}

// Start begins a span for a request first seen at the given instant (zero
// means now) carrying the given wire trace ID. On a nil Anatomy it returns
// nil, which every Span method accepts.
func (a *Anatomy) Start(traceID uint64, at time.Time) *Span {
	if a == nil {
		return nil
	}
	sp := a.pool.Get().(*Span)
	sp.reset(a, traceID, at)
	return sp
}

// finish folds a finished span into the histograms, the flight-recorder
// ring, and — when slow — the JSONL dump, then recycles it.
func (a *Anatomy) finish(sp *Span) {
	slow := a.cfg.SlowThreshold > 0 && sp.total >= int64(a.cfg.SlowThreshold)
	a.mu.Lock()
	for i := range sp.durs {
		if sp.durs[i] > 0 {
			a.stage[i].Observe(time.Duration(sp.durs[i]))
		}
	}
	a.total.Observe(time.Duration(sp.total))
	a.finished++
	rec := &a.ring[a.next]
	a.next = (a.next + 1) % len(a.ring)
	if a.count < len(a.ring) {
		a.count++
	}
	rec.Trace = sp.TraceID
	rec.Txn = sp.TxnID
	rec.Type = sp.Type
	rec.Status = sp.Status
	rec.When = sp.start
	rec.Total = sp.total
	rec.Stages = sp.durs
	rec.Events = append(rec.Events[:0], sp.events...)
	rec.Dropped = sp.dropped
	if slow {
		a.slowN++
		if a.cfg.SlowWriter != nil {
			a.slowBuf = appendSpanJSON(a.slowBuf[:0], rec)
			if _, err := a.cfg.SlowWriter.Write(a.slowBuf); err != nil {
				a.slowErrs++
			}
		}
	}
	a.mu.Unlock()
	a.pool.Put(sp)
}

// appendSpanJSON renders one flight-recorder record as a JSONL line.
func appendSpanJSON(dst []byte, rec *SpanRecord) []byte {
	dst = append(dst, `{"when":`...)
	dst = strconv.AppendQuote(dst, rec.When.Format(time.RFC3339Nano))
	dst = append(dst, `,"trace":`...)
	dst = strconv.AppendUint(dst, rec.Trace, 10)
	dst = append(dst, `,"txn":`...)
	dst = strconv.AppendUint(dst, rec.Txn, 10)
	dst = append(dst, `,"type":`...)
	dst = strconv.AppendQuote(dst, rec.Type)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendQuote(dst, rec.Status)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, rec.Total, 10)
	dst = append(dst, `,"stages":{`...)
	first := true
	for i, d := range rec.Stages {
		if d == 0 {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = strconv.AppendQuote(dst, SpanStage(i).String())
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, d, 10)
	}
	dst = append(dst, `},"events":[`...)
	for i := range rec.Events {
		e := &rec.Events[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"ts":`...)
		dst = strconv.AppendInt(dst, e.TS, 10)
		dst = append(dst, `,"kind":`...)
		dst = strconv.AppendQuote(dst, e.Kind.String())
		if e.Mode != "" {
			dst = append(dst, `,"mode":`...)
			dst = strconv.AppendQuote(dst, e.Mode)
		}
		if e.Item != "" {
			dst = append(dst, `,"item":`...)
			dst = strconv.AppendQuote(dst, e.Item)
		}
		if e.Dur != 0 {
			dst = append(dst, `,"dur":`...)
			dst = strconv.AppendInt(dst, e.Dur, 10)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if rec.Dropped > 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendUint(dst, uint64(rec.Dropped), 10)
	}
	return append(dst, "}\n"...)
}

// Finished reports the number of spans folded in.
func (a *Anatomy) Finished() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.finished
}

// SlowCount reports spans at or above the slow threshold.
func (a *Anatomy) SlowCount() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.slowN
}

// Recent returns copies of the flight-recorder entries, most recent last.
func (a *Anatomy) Recent() []SpanRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SpanRecord, 0, a.count)
	for i := 0; i < a.count; i++ {
		idx := (a.next - a.count + i + len(a.ring)) % len(a.ring)
		rec := a.ring[idx]
		rec.Events = append([]SpanEvent(nil), rec.Events...)
		out = append(out, rec)
	}
	return out
}

// WriteMetrics renders the per-stage histograms as Prometheus text series:
// accdb_txn_stage_seconds{stage,quantile} summaries plus _count and _sum,
// and the accdb_txn_anatomy_* counters.
func (a *Anatomy) WriteMetrics(w io.Writer) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	fmt.Fprintf(w, "# HELP accdb_txn_stage_seconds Per-stage transaction latency anatomy.\n")
	fmt.Fprintf(w, "# TYPE accdb_txn_stage_seconds summary\n")
	emit := func(name string, h *metrics.Histogram) {
		if h.Count() == 0 {
			return
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "accdb_txn_stage_seconds{stage=%q,quantile=\"%g\"} %.9f\n",
				name, q, h.Quantile(q).Seconds())
		}
		fmt.Fprintf(w, "accdb_txn_stage_seconds_count{stage=%q} %d\n", name, h.Count())
		fmt.Fprintf(w, "accdb_txn_stage_seconds_sum{stage=%q} %.9f\n",
			name, h.Sum().Seconds())
	}
	for i := range a.stage {
		emit(SpanStage(i).String(), &a.stage[i])
	}
	emit("total", &a.total)
	fmt.Fprintf(w, "# HELP accdb_txn_anatomy_finished_total Spans folded into the anatomy.\n")
	fmt.Fprintf(w, "# TYPE accdb_txn_anatomy_finished_total counter\naccdb_txn_anatomy_finished_total %d\n", a.finished)
	fmt.Fprintf(w, "# HELP accdb_txn_anatomy_slow_total Spans at or above the slow threshold.\n")
	fmt.Fprintf(w, "# TYPE accdb_txn_anatomy_slow_total counter\naccdb_txn_anatomy_slow_total %d\n", a.slowN)
}

// WriteText renders the live anatomy for /debug/anatomy: per-stage
// count/p50/p90/p99/max, the end-to-end row, and the slowest recent spans.
func (a *Anatomy) WriteText(w io.Writer) {
	if a == nil {
		fmt.Fprintln(w, "anatomy disabled")
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	fmt.Fprintf(w, "latency anatomy: %d spans, %d slow (threshold %v)\n\n",
		a.finished, a.slowN, a.cfg.SlowThreshold)
	fmt.Fprintf(w, "%-14s %10s %12s %12s %12s %12s\n", "stage", "count", "p50", "p90", "p99", "max")
	row := func(name string, h *metrics.Histogram) {
		if h.Count() == 0 {
			return
		}
		fmt.Fprintf(w, "%-14s %10d %12v %12v %12v %12v\n", name, h.Count(),
			h.Quantile(0.5).Round(time.Microsecond), h.Quantile(0.9).Round(time.Microsecond),
			h.Quantile(0.99).Round(time.Microsecond), h.Max().Round(time.Microsecond))
	}
	for i := range a.stage {
		row(SpanStage(i).String(), &a.stage[i])
	}
	row("total", &a.total)

	type slowRec struct {
		idx   int
		total int64
	}
	slow := make([]slowRec, 0, a.count)
	for i := 0; i < a.count; i++ {
		idx := (a.next - a.count + i + len(a.ring)) % len(a.ring)
		slow = append(slow, slowRec{idx, a.ring[idx].Total})
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].total > slow[j].total })
	if len(slow) > 10 {
		slow = slow[:10]
	}
	if len(slow) > 0 {
		fmt.Fprintf(w, "\nslowest recent spans:\n")
		for _, s := range slow {
			rec := &a.ring[s.idx]
			top, topDur := "", int64(0)
			for i, d := range rec.Stages {
				if d > topDur {
					top, topDur = SpanStage(i).String(), d
				}
			}
			fmt.Fprintf(w, "  trace=%d txn=%d type=%-14s status=%-12s total=%-12v top=%s (%v)\n",
				rec.Trace, rec.Txn, rec.Type, rec.Status,
				time.Duration(rec.Total).Round(time.Microsecond),
				top, time.Duration(topDur).Round(time.Microsecond))
		}
	}
}
