package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/tpcc"
)

// fakeWorkload is a TPC-C input generator of mix whose transactions run
// through run instead of a system.
func fakeWorkload(mix tpcc.Mix, run tpcc.RunFunc) *tpcc.Workload {
	cfg := tpcc.DefaultWorkloadConfig(tpcc.DefaultScale())
	cfg.Mix = mix
	return tpcc.NewRemoteWorkload(run, cfg)
}

func TestClosedLoopRun(t *testing.T) {
	var ran atomic.Int64
	w := fakeWorkload(tpcc.DefaultMix(), func(string, any) error {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	rec, perSec := Terminals{N: 4, Think: time.Millisecond, Seed: 1}.
		Measure(w, 50*time.Millisecond, 150*time.Millisecond)
	if rec.Count() == 0 {
		t.Fatal("nothing completed")
	}
	if rec.Count() >= int(ran.Load()) {
		t.Fatal("warm-up transactions were recorded")
	}
	if perSec <= 0 || rec.Total().Mean <= 0 {
		t.Fatalf("throughput %v, mean %v", perSec, rec.Total().Mean)
	}
}

func TestRunStopsTerminals(t *testing.T) {
	var live atomic.Int32
	w := fakeWorkload(tpcc.DefaultMix(), func(string, any) error {
		live.Add(1)
		defer live.Add(-1)
		return nil
	})
	Terminals{N: 8, Think: time.Millisecond}.Measure(w, 0, 30*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if live.Load() != 0 {
		t.Fatal("terminals still running after Measure returned")
	}
}

// TestTerminalSeedsDiffer holds each terminal in its first transaction until
// all four are in theirs, so each drew exactly once, from its own seed. The
// mix is all new-orders, whose inputs come from the seed alone.
func TestTerminalSeedsDiffer(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	var drawn []string
	all := make(chan struct{})
	w := fakeWorkload(tpcc.Mix{NewOrder: 100}, func(_ string, args any) error {
		mu.Lock()
		drawn = append(drawn, fmt.Sprintf("%+v", args))
		if len(drawn) == n {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Error("the terminals did not all start a transaction")
		}
		return nil
	})
	Terminals{N: n, Seed: 1, Ops: n}.Drive(w)
	seen := map[string]bool{}
	for _, d := range drawn {
		seen[d] = true
	}
	if len(drawn) != n || len(seen) != n {
		t.Fatalf("%d terminals drew %d distinct transactions of %d", n, len(seen), len(drawn))
	}
}
