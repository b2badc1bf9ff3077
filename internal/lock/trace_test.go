package lock

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"accdb/internal/spi"
	"accdb/internal/trace"
)

// collect flushes the tracer and indexes its events by kind.
func collect(tr *trace.Tracer, sink *trace.MemorySink) map[trace.Kind][]trace.Event {
	tr.Flush()
	out := make(map[trace.Kind][]trace.Event)
	for _, ev := range sink.Events() {
		out[ev.Kind] = append(out[ev.Kind], ev)
	}
	return out
}

func TestTraceLockLifecycleEvents(t *testing.T) {
	sink := trace.NewMemorySink(4096)
	tr := trace.New(sink)
	defer tr.Close()
	m := NewManager(newStub())
	m.SetTracer(tr)

	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("a")

	// Immediate grant.
	if err := m.Acquire(t1, it, conv(spi.ModeS)); err != nil {
		t.Fatal(err)
	}
	// Immediate conversion S→X.
	if err := m.Acquire(t1, it, conv(spi.ModeX)); err != nil {
		t.Fatal(err)
	}
	// Contended request: wait then grant.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(t2, it, conv(spi.ModeS)) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	byKind := collect(tr, sink)
	acq := byKind[trace.KindLockAcquire]
	if len(acq) == 0 {
		t.Fatal("no lock.acquire event")
	}
	if acq[0].Mode != "S" || acq[0].Item != it.String() || acq[0].Shard < 0 {
		t.Fatalf("acquire event = %+v", acq[0])
	}
	up := byKind[trace.KindLockUpgrade]
	if len(up) != 1 || up[0].Extra != "S->X" {
		t.Fatalf("upgrade events = %+v", up)
	}
	if len(byKind[trace.KindLockWait]) != 1 {
		t.Fatalf("wait events = %+v", byKind[trace.KindLockWait])
	}
	gr := byKind[trace.KindLockGrant]
	if len(gr) != 1 || gr[0].Txn != 2 || gr[0].Dur <= 0 {
		t.Fatalf("grant events = %+v", gr)
	}
}

func TestTraceDeadlockVictimAndADCModes(t *testing.T) {
	o := newStub()
	sink := trace.NewMemorySink(4096)
	tr := trace.New(sink)
	defer tr.Close()
	m := NewManager(o)
	m.SetTracer(tr)

	// A/D/C attachments carry the paper's mode tags.
	holder := spi.NewTxn(1, 1)
	it := item("x")
	if err := m.Acquire(holder, it, spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 7}); err != nil {
		t.Fatal(err)
	}
	m.AttachExposure(holder, it)
	m.AttachReservation(holder, it, 99)

	// Self-victim deadlock: t2 closes the cycle with t3.
	t2, t3 := spi.NewTxn(2, 1), spi.NewTxn(3, 1)
	a, b := item("a"), item("b")
	m.Acquire(t2, a, conv(spi.ModeX))
	m.Acquire(t3, b, conv(spi.ModeX))
	got := make(chan error, 1)
	go func() { got <- m.Acquire(t2, b, conv(spi.ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	if err := m.Acquire(t3, a, conv(spi.ModeX)); !errors.Is(err, spi.ErrDeadlock) {
		t.Fatalf("got %v, want spi.ErrDeadlock", err)
	}
	m.ReleaseAll(t3)
	if err := <-got; err != nil {
		t.Fatal(err)
	}

	byKind := collect(tr, sink)
	modes := make(map[string]bool)
	for _, ev := range byKind[trace.KindLockAcquire] {
		modes[ev.Mode] = true
	}
	for _, want := range []string{"A", "D", "C"} {
		if !modes[want] {
			t.Fatalf("no lock.acquire with mode %q (modes seen: %v)", want, modes)
		}
	}
	victims := byKind[trace.KindDeadlockVictim]
	if len(victims) == 0 {
		t.Fatal("no lock.victim event")
	}
	if victims[0].Extra != "self" || victims[0].Txn != 3 {
		t.Fatalf("victim event = %+v", victims[0])
	}
}

func TestTraceTimeoutAndCancelEvents(t *testing.T) {
	sink := trace.NewMemorySink(1024)
	tr := trace.New(sink)
	defer tr.Close()
	m := NewManager(newStub())
	m.SetTracer(tr)
	m.WaitTimeout = 30 * time.Millisecond

	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("x")
	m.Acquire(t1, it, conv(spi.ModeX))
	if err := m.Acquire(t2, it, conv(spi.ModeX)); !errors.Is(err, spi.ErrTimeout) {
		t.Fatalf("got %v, want spi.ErrTimeout", err)
	}

	m.WaitTimeout = 0
	t3 := spi.NewTxn(3, 1)
	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- m.AcquireCtx(ctx, t3, it, conv(spi.ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	byKind := collect(tr, sink)
	to := byKind[trace.KindLockTimeout]
	if len(to) == 0 || to[0].Txn != 2 || to[0].Dur <= 0 {
		t.Fatalf("timeout events = %+v", to)
	}
	ab := byKind[trace.KindLockAbort]
	found := false
	for _, ev := range ab {
		if ev.Txn == 3 && ev.Extra == "ctx" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cancel abort event for txn 3: %+v", ab)
	}
}

func TestSnapshotDumpsGrantsWaitersAndEdges(t *testing.T) {
	o := newStub()
	m := NewManager(o)
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 2)
	it := item("hot")

	m.Acquire(t1, it, conv(spi.ModeX))
	m.Acquire(t1, it, spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 7})
	m.AttachExposure(t1, it)
	m.AttachReservation(t1, it, 99)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(t2, it, conv(spi.ModeS)) }()
	waitUntil(t, func() bool { return m.Snapshot().WaiterCount() == 1 })

	snap := m.Snapshot()
	if snap.GrantCount() != 4 {
		t.Fatalf("GrantCount = %d, want 4 (X, A, D, C)", snap.GrantCount())
	}
	kinds := make(map[string]bool)
	var itemName string
	for _, sh := range snap.Shards {
		for _, is := range sh.Items {
			itemName = is.Item.String()
			for _, g := range is.Grants {
				kinds[g.Kind] = true
				if g.Kind == "A" && g.Assertion != 7 {
					t.Fatalf("A grant assertion = %d, want 7", g.Assertion)
				}
			}
			if len(is.Queue) != 1 || is.Queue[0].Txn != 2 || is.Queue[0].Mode != "S" {
				t.Fatalf("queue = %+v", is.Queue)
			}
		}
	}
	for _, want := range []string{"lock", "A", "D", "C"} {
		if !kinds[want] {
			t.Fatalf("grant kind %q missing (have %v)", want, kinds)
		}
	}
	if itemName != it.String() {
		t.Fatalf("item = %q, want %q", itemName, it.String())
	}
	if len(snap.Edges) != 1 || snap.Edges[0].From != 2 || snap.Edges[0].To != 1 {
		t.Fatalf("edges = %+v", snap.Edges)
	}

	dot := snap.DOT()
	for _, want := range []string{"digraph waitsfor", "t2 -> t1", it.String()} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	text := snap.String()
	for _, want := range []string{"held T1 X", "held T1 A(assertion=7)", "held T1 D", "held T1 C", "wait T2 S", "T2 waits-for T1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("String missing %q:\n%s", want, text)
		}
	}

	m.ReleaseAll(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t2)
	empty := m.Snapshot()
	if empty.GrantCount() != 0 || empty.WaiterCount() != 0 || len(empty.Edges) != 0 {
		t.Fatalf("snapshot after release = %+v", empty)
	}
	if !strings.Contains(empty.DOT(), "digraph waitsfor") {
		t.Fatal("empty DOT not a valid digraph")
	}
}

// waitUntil polls cond for up to a second; the snapshot of a concurrent
// waiter needs the goroutine to have enqueued first.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkTraceDisabled measures the uncontended Acquire+Release path with
// tracing off — the nil-tracer branch must stay in the noise (<2 ns/op added
// versus the pre-tracing numbers in EXPERIMENTS.md). Compare with
// BenchmarkTraceEnabled to see the enabled-path cost.
func BenchmarkTraceDisabled(b *testing.B) {
	m := NewManager(newStub())
	txn := spi.NewTxn(1, 1)
	it := item("bench")
	req := conv(spi.ModeS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Acquire(txn, it, req); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}

func BenchmarkTraceEnabled(b *testing.B) {
	sink := trace.NewMemorySink(1024)
	tr := trace.New(sink)
	defer tr.Close()
	m := NewManager(newStub())
	m.SetTracer(tr)
	txn := spi.NewTxn(1, 1)
	it := item("bench")
	req := conv(spi.ModeS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Acquire(txn, it, req); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}
