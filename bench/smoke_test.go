package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"accdb/internal/experiment"
)

// metricName is the contract's shape for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload in both trace modes at the shortest settings
// that still take every code path — accd children, scrapes, probes, trace
// files — and checks the output's shape against BENCHMARK.json: exactly its
// workload and metric names, well-formed, finite, and every per-layer name
// actually measured by at least one workload rather than zero-filled
// everywhere. It asserts nothing about speed. The eight runs go side by side:
// they mostly sleep through warm-up and measurement, and this test is part of
// tier-1.
func TestSmoke(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.short = true
	t.Cleanup(killChildren)

	want := []string{"net_tpcc_1p", "net_tpcc_4p_durable", "net_read_snapshot", figWorkload}
	got := e.spec.workloadNames()
	if !equalSets(want, got) {
		t.Fatalf("BENCHMARK.json workloads %v, the program runs %v", got, want)
	}
	if len(e.spec.EndToEnd) == 0 || len(e.spec.PerLayer) == 0 || len(e.spec.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics", len(e.spec.EndToEnd), len(e.spec.PerLayer))
	}

	var (
		mu       sync.Mutex
		measured = map[string]bool{} // per-layer names some workload really measured
		wg       sync.WaitGroup
	)
	for _, name := range want {
		for _, traced := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One second is enough everywhere but on fig_contended, which
				// completes ~90 transactions a second: a 4 % type needs a few
				// seconds to be sure of showing up at all.
				seconds := 1
				if name == figWorkload && !traced {
					seconds = 4
				}
				r, err := e.measure(name, 1, seconds, traced)
				if err != nil {
					t.Errorf("%s (traced %v): %v", name, traced, err)
					return
				}
				specs := e.spec.EndToEnd
				if traced {
					specs = e.spec.PerLayer
					mu.Lock()
					for k := range r.metrics {
						measured[k] = true
					}
					mu.Unlock()
				}
				rep, err := r.report(specs, !traced)
				if err != nil {
					t.Errorf("%s (traced %v): %v", name, traced, err)
					return
				}
				if len(rep.Metrics) != len(specs) {
					t.Errorf("%s (traced %v): %d metrics reported, BENCHMARK.json lists %d", name, traced, len(rep.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := rep.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("%s: %s: not reported", name, s.Name)
					case !metricName.MatchString(s.Name):
						t.Errorf("%s: %s: malformed name", name, s.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s: %s: %v", name, s.Name, v.Value)
					case v.Unit != s.Unit:
						t.Errorf("%s: %s: unit %q, BENCHMARK.json says %q", name, s.Name, v.Unit, s.Unit)
					case !traced && v.Value == 0:
						t.Errorf("%s: %s: an end-to-end metric must never read 0", name, s.Name)
					}
				}
				if rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("%s (traced %v): attempted %d, failed %d", name, traced, rep.Attempted, rep.Failed)
				}
			}()
		}
	}
	wg.Wait()
	for _, s := range e.spec.PerLayer {
		if !measured[s.Name] {
			t.Errorf("per-layer metric %s is in BENCHMARK.json but no workload measures it", s.Name)
		}
	}

	if _, err := e.measure("net_tpcc_2p", 1, 1, false); err == nil {
		t.Error("an unknown workload must fail, not run nothing")
	}
}

func equalSets(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestCompareNeverPassesVacuously feeds -compare ledgers that lack what it
// gates on: each must be refused, not read as zeros that compare as "ok".
func TestCompareNeverPassesVacuously(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	base, err := readLedger(filepath.Join(root, "bench/results/BENCH_11.json"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, mutate func(l *ledger)) string {
		data, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var l ledger
		if err := json.Unmarshal(data, &l); err != nil { // a deep copy
			t.Fatal(err)
		}
		mutate(&l)
		if data, err = json.Marshal(&l); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("same", func(*ledger) {})
	if err := compareLedgers(same, same); err != nil {
		t.Fatalf("a ledger compared with itself: %v", err)
	}
	for name, mutate := range map[string]func(l *ledger){
		"metric missing":   func(l *ledger) { delete(l.Workloads["net_tpcc_1p"].EndToEnd.Metrics, "payment_p50_ms") },
		"metric zero":      func(l *ledger) { l.Workloads["net_tpcc_1p"].EndToEnd.Metrics["payment_p50_ms"] = metricValue{0, "ms"} },
		"nothing tried":    func(l *ledger) { l.Workloads[figWorkload].EndToEnd.Attempted = 0 },
		"workload missing": func(l *ledger) { delete(l.Workloads, "net_read_snapshot") },
		"ratio missing":    func(l *ledger) { delete(l.Workloads[figWorkload].PerLayer.Metrics, "acc_over_2pl") },
		"other run count":  func(l *ledger) { l.Meta.Count = 1 },
		"other interval":   func(l *ledger) { l.Meta.Seconds = 5 },
	} {
		bad := write("bad", mutate)
		if compareLedgers(same, bad) == nil || compareLedgers(bad, same) == nil {
			t.Errorf("%s: -compare passed", name)
		}
	}
}

// TestMissingSeriesFails pins that a counter accd no longer exports fails the
// layer metrics built on it instead of reading 0.
func TestMissingSeriesFails(t *testing.T) {
	full := func() *delta {
		d := engineScrape(&experiment.RunResult{})
		d.after["accdb_txn_commits_total"] = 10
		return d
	}
	if err := engineLayers(full(), map[string]float64{}); err != nil {
		t.Fatalf("complete counters: %v", err)
	}
	d := full()
	delete(d.after, "accdb_lock_waits_total")
	if err := engineLayers(d, map[string]float64{}); err == nil || !strings.Contains(err.Error(), "accdb_lock_waits_total") {
		t.Errorf("a scrape without accdb_lock_waits_total: %v", err)
	}
	d = full()
	d.after[`accdb_txn_stage_seconds_count{stage="total"}`] = 1
	d.after[`accdb_txn_stage_seconds_sum{stage="execute"}`] = 1 // "exec", renamed
	if _, err := serverLayers(d, false, time.Second, map[string]float64{}); err == nil || !strings.Contains(err.Error(), "execute") {
		t.Errorf("a scrape with an unknown anatomy stage: %v", err)
	}
}
