package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/tpcc"
	"accdb/pkg/acc"
)

// terminals is the closed-loop population of every workload: TPC-C terminals
// wait for their reply before submitting the next transaction, so a slower
// server receives less load. Zero think time keeps all 16 permanently in
// flight, which is what makes throughput and mean response time two views of
// one number (Little's law) and lets short intervals repeat.
const terminals = 16

// txnTypes indexes the five TPC-C transaction types for compact samples.
var txnTypes = [...]string{"new_order", "payment", "order_status", "delivery", "stock_level"}

func typeIndex(name string) uint8 {
	for i, n := range txnTypes {
		if n == name {
			return uint8(i)
		}
	}
	panic("bench: unknown transaction type " + name)
}

// sample is one completed request as the terminal saw it. Raw samples — not
// a histogram — so percentiles are exact and the benchmark does not lean on
// internal/metrics.
type sample struct {
	typ       uint8
	ok        bool  // finished with the outcome its inputs call for
	resubmits uint8 // times the terminal sent it again after a system rollback
	start     int64 // ns since the load started
	dur       int64 // ns, first submission to final outcome
}

// maxResubmits is how often a terminal sends a transaction again after the
// system — not the transaction's own inputs — rolled it back: under the ACC
// a step that loses a deadlock twice is compensated, which undoes the
// transaction semantically and is final for the client library, so it is the
// application that tries again, as a TPC-C terminal's operator would. About
// one delivery in 10^5 requests on the single-warehouse workload ends that
// way. Resubmissions are counted (accclient.resubmits_per_kreq) and their
// time is part of the request's response time.
const maxResubmits = 3

// loadSpec is the traffic half of a net workload: what the generator draws
// and how the read-only types are submitted.
type loadSpec struct {
	warehouses int
	remotePct  int
	mix        tpcc.Mix
	readTier   acc.ReadTier
}

// runFunc submits one transaction at a consistency tier and waits for its
// outcome: accclient's RunTier for the net workloads, the in-process
// testbed's run for fig_contended.
type runFunc func(ctx context.Context, name string, args any, tier acc.ReadTier) error

// loadResult is one measured interval.
type loadResult struct {
	origin   time.Time // what sample.start counts from
	lo       int64     // where the measured interval starts, ns since origin
	samples  []sample  // completions inside the measured interval
	elapsed  time.Duration
	firstErr error // first unexpected outcome, for the failure report
}

// runLoad drives the closed loop through run for warmup+measure and returns
// the measured interval's samples. atStart and atEnd run at the interval's
// edges (the traced pass reads counters there); either may be nil.
func runLoad(run runFunc, spec loadSpec, seed int64, warmup, measure time.Duration, atStart, atEnd func() error) (*loadResult, error) {
	scale := tpcc.DefaultScale()
	if spec.warehouses > scale.Warehouses {
		scale.Warehouses = spec.warehouses // accd widens to its partition count the same way
	}
	wcfg := tpcc.DefaultWorkloadConfig(scale)
	wcfg.Mix = spec.mix
	wcfg.RemotePercent = spec.remotePct
	gen := tpcc.NewRemoteWorkload(nil, wcfg) // input generation only; the terminals below carry the requests

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		perTerm  [terminals][]sample
		errOnce  sync.Once
		firstErr error
	)
	ctx := context.Background()
	origin := time.Now()
	for t := 0; t < terminals; t++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(term)*7919))
			for !stop.Load() {
				name, args := gen.DrawArgs(r, term)
				tier := acc.TierLocked
				if name == "order_status" || name == "stock_level" {
					tier = spec.readTier
				}
				start := time.Now()
				err := run(ctx, name, args, tier)
				resubmits := uint8(0)
				for ; systemRollback(args, err) && resubmits < maxResubmits; resubmits++ {
					err = run(ctx, name, args, tier)
				}
				dur := time.Since(start)
				verr := checkOutcome(name, args, err)
				if verr != nil {
					errOnce.Do(func() { firstErr = verr })
				}
				perTerm[term] = append(perTerm[term], sample{
					typ: typeIndex(name), ok: verr == nil, resubmits: resubmits,
					start: int64(start.Sub(origin)), dur: int64(dur),
				})
			}
		}(t)
	}

	res := &loadResult{origin: origin}
	var edgeErr error
	time.Sleep(warmup)
	if atStart != nil {
		edgeErr = atStart()
	}
	t0 := time.Now()
	if edgeErr == nil {
		time.Sleep(measure)
	}
	t1 := time.Now()
	if edgeErr == nil && atEnd != nil {
		edgeErr = atEnd()
	}
	stop.Store(true)
	wg.Wait()
	if edgeErr != nil {
		return nil, edgeErr
	}

	lo, hi := int64(t0.Sub(origin)), int64(t1.Sub(origin))
	for t := range perTerm {
		for _, s := range perTerm[t] {
			if end := s.start + s.dur; end >= lo && end < hi {
				res.samples = append(res.samples, s)
			}
		}
	}
	res.lo, res.elapsed = lo, t1.Sub(t0)
	res.firstErr = firstErr
	if len(res.samples) == 0 {
		return nil, fmt.Errorf("bench: zero measured samples (first error: %v)", firstErr)
	}
	return res, nil
}

// mustRollBack reports whether args are one of the mix's by-design 1 % of
// new-orders: drawn with an unused item or a forced final failure.
func mustRollBack(args any) bool {
	no, ok := args.(*tpcc.NewOrderArgs)
	return ok && (no.InvalidItem || no.FailFinal)
}

// systemRollback reports whether err is a final rollback the transaction's
// inputs did not ask for.
func systemRollback(args any, err error) bool {
	return errors.Is(err, acc.ErrAborted) && !mustRollBack(args)
}

// checkOutcome reports whether a request ended the way its inputs call for:
// a by-design new-order must roll back, everything else must commit. Deadlock
// victims and lock timeouts that survive the client's retries, rollbacks that
// survive the terminal's resubmissions, queue-full, draining and transport
// errors all land in the error branch and count as failed.
func checkOutcome(name string, args any, err error) error {
	no, _ := args.(*tpcc.NewOrderArgs)
	switch mustRollBack := mustRollBack(args); {
	case mustRollBack && errors.Is(err, acc.ErrAborted):
		return nil
	case mustRollBack:
		return fmt.Errorf("%s: drawn to roll back, got %v", name, err)
	case err != nil:
		return fmt.Errorf("%s: %w", name, err)
	case no != nil && no.ONum <= 0:
		return fmt.Errorf("%s: committed without an order number", name)
	}
	return nil
}

// percentile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

// durations returns the sorted durations of the correct-outcome samples
// whose type keep accepts. Failed requests have no response time worth
// averaging in; they are counted in failed instead.
func durations(samples []sample, keep func(typ uint8) bool) []int64 {
	var out []int64
	for _, s := range samples {
		if s.ok && keep(s.typ) {
			out = append(out, s.dur)
		}
	}
	slices.Sort(out)
	return out
}

func isType(names ...string) func(uint8) bool {
	var mask uint8
	for _, n := range names {
		mask |= 1 << typeIndex(n)
	}
	return func(typ uint8) bool { return mask&(1<<typ) != 0 }
}

const nsPerMs = 1e6
