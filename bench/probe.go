package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"accdb/internal/tpcc"
)

// span is one benchmark-owned trace span: a call (or a batch of calls) into
// a layer's public functions, or one client request of the traced pass.
// Spans are kept in memory and written out once, when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the run itself
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"` // calls the span covers
}

// tracer collects spans. Probes run on one goroutine and the traced pass
// adds its request spans after the load has stopped, so it needs no lock.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(parent int, layer, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Start: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

func (t *tracer) end(id, calls int) {
	t.spans[id-1].End = int64(time.Since(t.origin))
	t.spans[id-1].Calls = calls
}

// requests adds one span per request of a measured interval under parent.
func (t *tracer) requests(parent int, res *loadResult) {
	base := int64(res.origin.Sub(t.origin))
	for _, s := range res.samples {
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Layer: "accclient", Name: txnTypes[s.typ],
			Start: base + s.start, End: base + s.start + s.dur, Calls: 1,
		})
	}
}

// write dumps the spans as JSONL to bench/out/trace_<workload>.jsonl.
func (t *tracer) write(root, workload string) error {
	f, err := os.Create(filepath.Join(root, outDir, "trace_"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prober runs the layer probes: single-goroutine microbenchmarks of each
// layer's public entry points, fed from the same seeded TPC-C generator the
// workloads use. A probe's number is the median over its batches of the mean
// time per call, which keeps one GC pause or preemption out of the result.
type prober struct {
	tr      *tracer
	root    string // checkout root, for probes that need scratch files
	parent  int    // span the probes hang under
	seed    int64
	maxIter int           // stop a probe after this many calls…
	budget  time.Duration // …or this much time, whichever comes first
	out     map[string]float64
}

func (e *env) newProber(tr *tracer, seed int64, out map[string]float64) *prober {
	p := &prober{tr: tr, root: e.root, seed: seed, maxIter: 10_000, budget: 500 * time.Millisecond, out: out}
	p.parent = tr.begin(0, "bench", "probes")
	if e.short {
		p.maxIter, p.budget = 100, 100*time.Millisecond
	}
	return p
}

// rng returns a generator seeded for one probe, so probes do not perturb one
// another's inputs.
func (p *prober) rng(salt int64) *rand.Rand { return rand.New(rand.NewSource(p.seed*1_000_003 + salt)) }

// time measures fn and returns the nanoseconds per call. Calls are made in
// batches of batch, each batch one span: batch 1 for calls of microseconds
// and more, ~100 for calls of nanoseconds, where a clock reading per call
// would be most of the measurement. i counts calls from 0.
func (p *prober) time(layer, name string, batch int, fn func(i int)) float64 {
	return p.measure(layer, name, batch, nil, fn)
}

// measure is time with a prep that runs, untimed, before each batch: for
// calls that consume state which must be put back between batches.
func (p *prober) measure(layer, name string, batch int, prep, fn func(i int)) float64 {
	id := p.tr.begin(p.parent, layer, name)
	var perCall []float64
	calls := 0
	deadline := time.Now().Add(p.budget)
	for calls < p.maxIter && (calls == 0 || time.Now().Before(deadline)) {
		n := min(batch, p.maxIter-calls)
		if prep != nil {
			prep(calls)
		}
		b := p.tr.begin(id, layer, name)
		start := time.Now()
		for j := 0; j < n; j++ {
			fn(calls + j)
		}
		took := time.Since(start)
		p.tr.end(b, n)
		perCall = append(perCall, float64(took)/float64(n))
		calls += n
	}
	p.tr.end(id, calls)
	sort.Float64s(perCall)
	return perCall[len(perCall)/2]
}

// ns and us record a probe's result under name, in the unit the name ends in.
func (p *prober) ns(layer, name string, batch int, fn func(i int)) {
	p.out[name] = p.time(layer, name, batch, fn)
}

func (p *prober) us(layer, name string, batch int, fn func(i int)) {
	p.out[name] = p.time(layer, name, batch, fn) / 1e3
}

// probeAll runs every layer's probes.
func (p *prober) probeAll() error {
	for _, probe := range []func() error{
		p.probeTPCC, p.probeWire, p.probeStorage, p.probeLock,
		p.probeWAL, p.probeCore, p.probeRecover, p.probePartition,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	p.tr.end(p.parent, len(p.out))
	return nil
}

// probeTPCC prices the input generator itself, so the README can show the
// net workloads measure accd and not the process feeding it.
func (p *prober) probeTPCC() error {
	gen := tpcc.NewRemoteWorkload(nil, tpcc.DefaultWorkloadConfig(tpcc.DefaultScale()))
	r := p.rng(1)
	p.ns("tpcc", "tpcc.draw_args_ns", 100, func(i int) { gen.DrawArgs(r, i%terminals) })
	return nil
}

// failf builds a probe failure.
func failf(format string, args ...any) error {
	return fmt.Errorf("bench: probe: "+format, args...)
}
