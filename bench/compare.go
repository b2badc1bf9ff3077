package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
)

// ratioBound gates acc_over_2pl, the one per-layer metric -compare holds to
// a bound although the driver's contract cannot: BENCHMARK.json's per_layer
// entries carry no bound, and an end-to-end metric must be measured on every
// workload, which the paper's headline ratio (Figs. 2–4) is not — it exists
// on fig_contended only. One run's two 10s halves spread about 6 %; between
// ledgers, which keep the median of three, it has moved 0.6–2 %, so it is held
// to ISSUE 11's ceiling.
const ratioBound = 0.10

// quietBounds tightens -compare where this host allows it. BENCHMARK.json
// carries one bound per metric, which has to hold on all four workloads, and
// the two CPU-bound ones follow the host's speed state by ±10 %: hence 0.25
// everywhere. The two workloads that wait instead — for fsync, for locks —
// repeat to 2–4 % on throughput and the payment median (README, calibration),
// so between ledgers those are held to ISSUE 11's ceiling of 0.10. These are
// the workloads a WAL, coordinator, lock or scheduler change has to show on.
var quietBounds = map[string]map[string]float64{
	"net_tpcc_4p_durable": {"txn_per_s": 0.10, "payment_p50_ms": 0.10},
	figWorkload:           {"txn_per_s": 0.10, "payment_p50_ms": 0.10},
}

// boundOn is the bound -compare holds end-to-end metric m to on workload.
func boundOn(workload string, m metricSpec) float64 {
	if b, ok := quietBounds[workload][m.Name]; ok && b < m.Bound {
		return b
	}
	return m.Bound
}

// maxFailFrac is the absolute bound on (attempted − correct) / attempted.
const maxFailFrac = 0.002

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(l.Workloads) == 0 {
		return nil, fmt.Errorf("bench: %s holds no workloads: not a ledger", path)
	}
	return &l, nil
}

// worse returns by what share of old the metric got worse going to new, in
// the metric's own direction; negative means it improved. Gated metrics are
// checked positive first (usable); old is 0 only for a per-layer metric that
// first appears in new, which is printed as no change.
func worse(spec metricSpec, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	change := (new - old) / old
	if spec.Better == "higher" {
		return -change
	}
	return change
}

// usable reports why a pass's report cannot be compared, or nil: it must have
// attempted something and hold a positive value for every metric in specs. A
// name the ledger lacks would otherwise read 0, and 0 compares as a 100 %
// improvement of a lower-is-better metric.
func usable(r *report, specs []metricSpec) error {
	if r == nil {
		return errors.New("pass missing")
	}
	if r.Attempted < 1 {
		return fmt.Errorf("attempted %d", r.Attempted)
	}
	for _, m := range specs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s missing", m.Name)
		}
		if !(v.Value > 0) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s is %v", m.Name, v.Value)
		}
	}
	return nil
}

// compareLedgers prints, per workload, every end-to-end metric's relative
// change against its bound (boundOn) and direction, and exits non-zero
// (returns an error) on any breach, on a failure share above maxFailFrac, or
// on a higher one than before. Per-layer changes are printed for information, except
// acc_over_2pl, which is held to ratioBound. It refuses ledgers that are not
// medians of the same number of runs of the same interval, and a ledger that
// lacks a workload, a pass or an end-to-end metric is a breach, never a pass.
func compareLedgers(oldPath, newPath string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := readCatalogue(root)
	if err != nil {
		return err
	}
	old, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	new, err := readLedger(newPath)
	if err != nil {
		return err
	}
	if old.Meta.Seconds != new.Meta.Seconds || old.Meta.Count != new.Meta.Count {
		return fmt.Errorf("bench: ledgers are not comparable: %s is medians of %d runs of %ds, %s of %d runs of %ds",
			oldPath, old.Meta.Count, old.Meta.Seconds, newPath, new.Meta.Count, new.Meta.Seconds)
	}

	var breaches []string
	breach := func(format string, args ...any) {
		breaches = append(breaches, fmt.Sprintf(format, args...))
	}
	gate := func(workload string, m metricSpec, bound, o, n float64) string {
		w := worse(m, o, n)
		verdict := "ok"
		if w > bound {
			verdict = "REGRESSION"
			breach("%s: %s %g -> %g %s: %.1f%% worse, bound %.1f%%", workload, m.Name, o, n, m.Unit, 100*w, 100*bound)
		}
		return fmt.Sprintf("%+7.2f%% worse (bound %4.1f%%) %s", 100*w, 100*bound, verdict)
	}
	for _, name := range spec.workloadNames() {
		ow, nw := old.Workloads[name], new.Workloads[name]
		unusable := false
		for _, side := range []struct {
			path string
			lw   ledgerWorkload
		}{{oldPath, ow}, {newPath, nw}} {
			if err := usable(side.lw.EndToEnd, spec.EndToEnd); err != nil {
				breach("%s: %s: end-to-end pass: %v", name, side.path, err)
				unusable = true
			}
			if side.lw.PerLayer == nil || side.lw.PerLayer.Attempted < 1 {
				breach("%s: %s: per-layer pass missing or empty", name, side.path)
				unusable = true
			}
		}
		if unusable {
			continue
		}
		fmt.Printf("== %s\n", name)
		oldFail := float64(ow.EndToEnd.Failed) / float64(ow.EndToEnd.Attempted)
		newFail := float64(nw.EndToEnd.Failed) / float64(nw.EndToEnd.Attempted)
		fmt.Printf("  %-36s %14.6f -> %14.6f\n", "fail_frac", oldFail, newFail)
		if newFail > maxFailFrac || newFail > oldFail {
			breach("%s: fail_frac %.6f -> %.6f (bound %.3f absolute, and never higher)", name, oldFail, newFail, maxFailFrac)
		}
		for _, m := range spec.EndToEnd {
			o, n := ow.EndToEnd.Metrics[m.Name].Value, nw.EndToEnd.Metrics[m.Name].Value
			fmt.Printf("  %-36s %14.6g -> %14.6g %-6s %s\n", m.Name, o, n, m.Unit, gate(name, m, boundOn(name, m), o, n))
		}
		for _, m := range spec.PerLayer {
			o, n := ow.PerLayer.Metrics[m.Name].Value, nw.PerLayer.Metrics[m.Name].Value
			if m.Name == "acc_over_2pl" && name == figWorkload {
				if !(o > 0) || !(n > 0) {
					breach("%s: %s is %v and %v: the ratio was not measured", name, m.Name, o, n)
					continue
				}
				fmt.Printf("  %-36s %14.6g -> %14.6g %-6s %s\n", m.Name, o, n, m.Unit, gate(name, m, ratioBound, o, n))
				continue
			}
			if o == 0 && n == 0 {
				continue // not on this workload's path
			}
			fmt.Printf("  %-36s %14.6g -> %14.6g %-6s %+7.2f%% worse\n", m.Name, o, n, m.Unit, 100*worse(m, o, n))
		}
	}
	if len(breaches) > 0 {
		return fmt.Errorf("bench: %d regressions:\n  %s", len(breaches), strings.Join(breaches, "\n  "))
	}
	fmt.Println("no regression: every end-to-end metric on every workload is within its bound")
	return nil
}
