package experiment

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"accdb/internal/core"
)

func TestRecorderSummaries(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Record("a", time.Duration(i)*time.Millisecond, core.OutcomeOK)
	}
	r.Record("a", 500*time.Millisecond, core.OutcomeCompensated)
	r.Record("a", 400*time.Millisecond, core.OutcomeAborted)
	r.Record("a", time.Second, core.OutcomeInternal)
	s := r.ByType()["a"]
	if s.Count != 102 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Rollbacks != 2 || s.Errors != 1 {
		t.Fatalf("rollbacks=%d errors=%d", s.Rollbacks, s.Errors)
	}
	if s.Max != 500*time.Millisecond {
		t.Fatalf("Max = %v (failed txn must not count)", s.Max)
	}
	if s.P50 < 40*time.Millisecond || s.P50 > 60*time.Millisecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P99 < s.P95 || s.P95 < s.P50 {
		t.Fatal("percentiles out of order")
	}
	if s.Mean <= 0 {
		t.Fatal("mean missing")
	}
}

func TestRecorderTotalMergesTypes(t *testing.T) {
	r := NewRecorder()
	r.Record("a", 10*time.Millisecond, core.OutcomeOK)
	r.Record("b", 30*time.Millisecond, core.OutcomeOK)
	total := r.Total()
	if total.Count != 2 || total.Mean != 20*time.Millisecond {
		t.Fatalf("total = %+v", total)
	}
	if r.Count() != 2 {
		t.Fatalf("Count() = %d", r.Count())
	}
}

func TestEmptySummary(t *testing.T) {
	r := NewRecorder()
	s := r.Total()
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	r := NewRecorder()
	r.Record("a", time.Millisecond, core.OutcomeOK)
	out := fmt.Sprint(r.ByType()["a"])
	if out == "" {
		t.Fatal("empty String")
	}
}

// TestDeadlockAndTimeoutOutcomes: every outcome that is neither a commit nor
// a rollback stays out of the response-time population; deadlocks and lock
// timeouts get their own counters, the rest count as errors.
func TestDeadlockAndTimeoutOutcomes(t *testing.T) {
	r := NewRecorder()
	r.Record("a", time.Millisecond, core.OutcomeOK)
	r.Record("a", time.Second, core.OutcomeDeadlock)
	r.Record("a", time.Second, core.OutcomeDeadlock)
	r.Record("a", time.Second, core.OutcomeLockTimeout)
	for _, o := range []core.Outcome{core.OutcomeCanceled, core.OutcomeUnknownType,
		core.OutcomeDraining, core.OutcomeBadRequest, core.OutcomeInternal} {
		r.Record("a", time.Second, o)
	}
	s := r.ByType()["a"]
	if s.Count != 1 {
		t.Fatalf("Count = %d (aborted txns must not join the population)", s.Count)
	}
	if s.Deadlocks != 2 || s.Timeouts != 1 || s.Errors != 5 {
		t.Fatalf("deadlocks=%d timeouts=%d errors=%d", s.Deadlocks, s.Timeouts, s.Errors)
	}
	if s.Max != time.Millisecond {
		t.Fatalf("Max = %v (aborted durations must not count)", s.Max)
	}
	out := s.String()
	if !strings.Contains(out, "deadlocks=2") || !strings.Contains(out, "timeouts=1") {
		t.Fatalf("String() = %q missing outcome counters", out)
	}
	total := r.Total()
	if total.Deadlocks != 2 || total.Timeouts != 1 {
		t.Fatalf("Total = %+v", total)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record("x", time.Millisecond, core.OutcomeOK)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 4000 {
		t.Fatalf("Count = %d", r.Count())
	}
}

// TestRecordObserveRace pins the readers-vs-Record contract: summaries taken
// while terminals record must be safe under the race detector and coherent —
// the completed count never goes backwards, and once the writers stop it
// holds every record they made.
func TestRecordObserveRace(t *testing.T) {
	r := NewRecorder()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	recorded := make([]int, 4)

	for g := range recorded {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			name := fmt.Sprintf("type-%d", g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					recorded[g] = i
					return
				default:
				}
				r.Record(name, time.Duration(i%1000)*time.Microsecond, core.OutcomeOK)
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Total()
			_ = r.ByType()
			n := r.Count()
			if n < last {
				t.Errorf("Count went backwards: %d after %d", n, last)
				return
			}
			last = n
		}
	}()

	for i := 0; i < 200; i++ {
		_ = r.Total()
	}
	close(stop)
	writers.Wait()
	readers.Wait()

	want := 0
	for _, n := range recorded {
		want += n
	}
	if got := r.Count(); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got := r.Total().Count; got != want {
		t.Errorf("Total().Count = %d, want %d", got, want)
	}
}
