package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// exerciseSpan drives one span through the full server-shaped lifecycle.
func exerciseSpan(a *Anatomy) {
	sp := a.Start(42, time.Time{})
	sp.Next(StageQueue)
	sp.Next(StageDecode)
	sp.EnterEngine()
	sp.SetTxn(7, "new_order")
	sp.Event(KindTxnBegin, "", "new_order", 0)
	sp.Add(StageLockA, 1000)
	sp.Event(KindLockGrant, "A", "stock[row/1]", 1000)
	sp.Add(StageWALAppend, 500)
	sp.Add(StageGroupCommit, 2000)
	sp.Event(KindTxnCommit, "", "new_order", 0)
	sp.ExitEngine()
	sp.SetStatus("ok")
	sp.Next(StageEncode)
	sp.Finish()
}

// TestSpanAllocFree is the CI allocation guard for the latency-anatomy layer
// (run via -run 'AllocFree'): a disabled anatomy must cost zero allocations,
// and the enabled steady state (pooled spans, retained event capacity,
// reused ring slots and slow-log buffer) at most two per transaction.
func TestSpanAllocFree(t *testing.T) {
	var off *Anatomy
	disabled := testing.AllocsPerRun(200, func() { exerciseSpan(off) })
	if disabled != 0 {
		t.Errorf("disabled anatomy: %.2f allocs/op, want 0", disabled)
	}

	on := NewAnatomy(AnatomyConfig{RingSize: 8})
	for i := 0; i < 32; i++ {
		exerciseSpan(on) // charge the pool and the ring's event slices
	}
	enabled := testing.AllocsPerRun(200, func() { exerciseSpan(on) })
	if enabled > 2 {
		t.Errorf("enabled anatomy: %.2f allocs/op, want <= 2", enabled)
	}

	// Every transaction recorded: the slow log at 1ns writes each span.
	everyTxn := NewAnatomy(AnatomyConfig{RingSize: 8, SlowThreshold: time.Nanosecond, SlowWriter: io.Discard})
	for i := 0; i < 32; i++ {
		exerciseSpan(everyTxn)
	}
	logged := testing.AllocsPerRun(200, func() { exerciseSpan(everyTxn) })
	if logged > 2 {
		t.Errorf("anatomy logging every span: %.2f allocs/op, want <= 2", logged)
	}
}

func TestSpanStagesSumToTotal(t *testing.T) {
	a := NewAnatomy(AnatomyConfig{})
	sp := a.Start(9, time.Time{})
	time.Sleep(2 * time.Millisecond)
	sp.Next(StageQueue)
	time.Sleep(time.Millisecond)
	sp.Next(StageDecode)
	sp.EnterEngine()
	sp.SetTxn(1, "payment")
	time.Sleep(3 * time.Millisecond)
	sp.ExitEngine()
	sp.SetStatus("ok")
	time.Sleep(time.Millisecond)
	sp.Next(StageEncode)
	sp.Finish()

	recent := a.Recent()
	if len(recent) != 1 {
		t.Fatalf("got %d records, want 1", len(recent))
	}
	rec := recent[0]
	var sum int64
	for _, d := range rec.Stages {
		sum += d
	}
	if rec.Total <= 0 {
		t.Fatalf("non-positive total %d", rec.Total)
	}
	if sum != rec.Total {
		t.Errorf("stage sum %d vs total %d: the stages are contiguous and must add up exactly", sum, rec.Total)
	}
	if rec.Stages[StageQueue] < int64(time.Millisecond) {
		t.Errorf("queue stage %v, want >= 2ms elapsed", time.Duration(rec.Stages[StageQueue]))
	}
	if rec.Stages[StageExec] < int64(2*time.Millisecond) {
		t.Errorf("exec stage %v, want >= 3ms engine wall", time.Duration(rec.Stages[StageExec]))
	}
}

// TestSpanExecExcludesInnerStages checks the defining property of StageExec:
// engine wall time minus the lock/WAL/group-commit durations charged via Add.
func TestSpanExecExcludesInnerStages(t *testing.T) {
	a := NewAnatomy(AnatomyConfig{})
	sp := a.Start(1, time.Time{})
	sp.Next(StageQueue)
	sp.EnterEngine()
	start := time.Now()
	time.Sleep(4 * time.Millisecond)
	wall := int64(time.Since(start))
	// Pretend half the engine wall was a lock wait.
	sp.Add(StageLockD, wall/2)
	sp.ExitEngine()
	sp.Finish()

	rec := a.Recent()[0]
	if rec.Stages[StageExec] >= wall {
		t.Errorf("exec %d not reduced below wall %d by inner lock stage", rec.Stages[StageExec], wall)
	}
	if rec.Stages[StageLockD] != wall/2 {
		t.Errorf("lock_d = %d, want %d", rec.Stages[StageLockD], wall/2)
	}
}

func TestAnatomySlowDump(t *testing.T) {
	var buf bytes.Buffer
	a := NewAnatomy(AnatomyConfig{SlowThreshold: time.Nanosecond, SlowWriter: &buf})
	exerciseSpan(a)
	exerciseSpan(a)
	if got := a.SlowCount(); got != 2 {
		t.Fatalf("SlowCount = %d, want 2", got)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for _, line := range lines {
		var rec struct {
			Trace  uint64           `json:"trace"`
			Txn    uint64           `json:"txn"`
			Type   string           `json:"type"`
			Status string           `json:"status"`
			Total  int64            `json:"total"`
			Stages map[string]int64 `json:"stages"`
			Events []struct {
				TS   int64  `json:"ts"`
				Kind string `json:"kind"`
				Mode string `json:"mode"`
				Item string `json:"item"`
			} `json:"events"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid JSONL %q: %v", line, err)
		}
		if rec.Trace != 42 || rec.Txn != 7 || rec.Type != "new_order" || rec.Status != "ok" {
			t.Errorf("identity mangled: %+v", rec)
		}
		// The synthetic Add'ed durations can exceed the span's real wall time,
		// so no sum==total assertion here — the loopback end-to-end test owns
		// that property with genuine timings.
		if rec.Stages["lock_a"] != 1000 || rec.Stages["group_commit"] != 2000 {
			t.Errorf("stages mangled: %v", rec.Stages)
		}
		foundWait := false
		for _, e := range rec.Events {
			if e.Kind == "lock.grant" && e.Mode == "A" && e.Item == "stock[row/1]" {
				foundWait = true
			}
		}
		if !foundWait {
			t.Errorf("lock wait missing from event history: %v", rec.Events)
		}
	}
}

// TestKindNames pins the span event vocabulary: every kind has a distinct
// dotted name, and values outside the list render as "unknown".
func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindTxnBegin; k < kindMax; k++ {
		name := k.String()
		if name == "unknown" || !strings.Contains(name, ".") {
			t.Errorf("kind %d has no name (%q)", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	for _, k := range []Kind{0, kindMax} {
		if got := k.String(); got != "unknown" {
			t.Errorf("Kind(%d).String() = %q, want unknown", k, got)
		}
	}
}

func TestAnatomyRingOverwrite(t *testing.T) {
	a := NewAnatomy(AnatomyConfig{RingSize: 4})
	for i := 0; i < 10; i++ {
		sp := a.Start(uint64(100+i), time.Time{})
		sp.Finish()
	}
	recent := a.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	for i, rec := range recent {
		if want := uint64(106 + i); rec.Trace != want {
			t.Errorf("recent[%d].Trace = %d, want %d", i, rec.Trace, want)
		}
	}
	if a.Finished() != 10 {
		t.Errorf("Finished = %d, want 10", a.Finished())
	}
}

func TestSpanEventOverflow(t *testing.T) {
	a := NewAnatomy(AnatomyConfig{})
	sp := a.Start(1, time.Time{})
	for i := 0; i < spanEventCap+5; i++ {
		sp.Event(KindStepBegin, "", "s", 0)
	}
	sp.Finish()
	rec := a.Recent()[0]
	if len(rec.Events) != spanEventCap {
		t.Errorf("kept %d events, want %d", len(rec.Events), spanEventCap)
	}
	if rec.Dropped != 5 {
		t.Errorf("dropped = %d, want 5", rec.Dropped)
	}
}

func TestAnatomyWriteMetrics(t *testing.T) {
	a := NewAnatomy(AnatomyConfig{})
	exerciseSpan(a)
	var buf bytes.Buffer
	a.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		`accdb_txn_stage_seconds{stage="lock_a",quantile="0.5"}`,
		`accdb_txn_stage_seconds_count{stage="total"} 1`,
		"accdb_txn_anatomy_finished_total 1",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	var text bytes.Buffer
	a.WriteText(&text)
	if !bytes.Contains(text.Bytes(), []byte("group_commit")) {
		t.Errorf("WriteText missing stage table:\n%s", text.String())
	}
}
