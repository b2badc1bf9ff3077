package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/metrics"
)

func TestEnvStatementCountsAndServes(t *testing.T) {
	env := NewEnv(2, 0, 0)
	ran := 0
	for i := 0; i < 2; i++ {
		env.BeginStatement()
		ran++
		env.EndStatement()
	}
	if ran != 2 || env.Statements() != 2 {
		t.Fatalf("ran=%d statements=%d", ran, env.Statements())
	}
}

func TestEnvServerPoolLimitsConcurrency(t *testing.T) {
	env := NewEnv(2, 0, 0)
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env.BeginStatement()
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			active.Add(-1)
			env.EndStatement()
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds 2 servers", got)
	}
}

func TestEnvServiceTimeCharged(t *testing.T) {
	env := NewEnv(1, 20*time.Millisecond, 30*time.Millisecond)
	start := time.Now()
	env.BeginStatement()
	env.EndStatement()
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("service time not charged")
	}
	start = time.Now()
	env.Compute()
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("compute time not charged")
	}
}

func TestZeroEnvIsInline(t *testing.T) {
	var env Env // zero value: no server pool, no service time
	start := time.Now()
	env.BeginStatement()
	env.EndStatement()
	env.Compute()
	if env.Statements() != 1 || time.Since(start) > time.Second {
		t.Fatalf("zero env: %d statements in %v", env.Statements(), time.Since(start))
	}
}

func TestClosedLoopRun(t *testing.T) {
	var count atomic.Int64
	gen := GeneratorFunc(func(r *rand.Rand, terminal int) Txn {
		return Txn{Type: "noop", Run: func() (metrics.Outcome, error) {
			count.Add(1)
			time.Sleep(time.Millisecond)
			return metrics.Committed, nil
		}}
	})
	res := Run(Config{
		Terminals: 4,
		Duration:  150 * time.Millisecond,
		Warmup:    50 * time.Millisecond,
		ThinkTime: time.Millisecond,
		Seed:      1,
	}, gen)
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.Completed >= int(count.Load()) {
		t.Fatal("warmup transactions should not be recorded")
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput missing")
	}
	if res.Recorder.Total().Mean <= 0 {
		t.Fatal("mean missing")
	}
}

func TestRunStopsTerminals(t *testing.T) {
	var live atomic.Int32
	gen := GeneratorFunc(func(r *rand.Rand, terminal int) Txn {
		return Txn{Type: "x", Run: func() (metrics.Outcome, error) {
			live.Add(1)
			defer live.Add(-1)
			return metrics.Committed, nil
		}}
	})
	Run(Config{Terminals: 8, Duration: 30 * time.Millisecond, ThinkTime: time.Millisecond}, gen)
	time.Sleep(20 * time.Millisecond)
	if live.Load() != 0 {
		t.Fatal("terminals still running after Run returned")
	}
}

func TestTerminalSeedsDiffer(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int64{}
	gen := GeneratorFunc(func(r *rand.Rand, terminal int) Txn {
		v := r.Int63()
		mu.Lock()
		if _, ok := seen[terminal]; !ok {
			seen[terminal] = v
		}
		mu.Unlock()
		return Txn{Type: "x", Run: func() (metrics.Outcome, error) { return metrics.Committed, nil }}
	})
	Run(Config{Terminals: 4, Duration: 30 * time.Millisecond}, gen)
	vals := map[int64]bool{}
	for _, v := range seen {
		vals[v] = true
	}
	if len(vals) < 2 {
		t.Fatal("terminals drew identical streams")
	}
}
