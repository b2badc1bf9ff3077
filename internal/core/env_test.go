package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestZeroEnvIsInline: the zero *Env, nil, which an engine built without
// WithEnv runs on, charges nothing and counts nothing.
func TestZeroEnvIsInline(t *testing.T) {
	var env *Env
	start := time.Now()
	env.BeginStatement()
	env.EndStatement()
	env.Compute()
	if env.Statements() != 0 || time.Since(start) > time.Second {
		t.Fatalf("nil env: %d statements in %v", env.Statements(), time.Since(start))
	}
	s := newTestSys(t, ModeACC)
	if s.eng.env != nil {
		t.Fatal("an engine built without WithEnv has an Env")
	}
	if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 5}); err != nil {
		t.Fatal(err)
	}
}
