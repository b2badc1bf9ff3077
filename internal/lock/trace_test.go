package lock

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"accdb/internal/interference"
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
	holder.Comp = 99
	m.AttachExposure(holder, it)

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
	t1.Comp = 99
	m.AttachExposure(t1, it)

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

// TestMarkKeepsDAndCApart: one grant is both an item's D mark and its C
// reservation, yet the wait stage, the trace and the snapshot still say which
// of the two refused a request or is held; without a compensating step the
// mark is an exposure only; a step abort drops only that step's marks.
func TestMarkKeepsDAndCApart(t *testing.T) {
	o := newStub()
	o.setInterferes(99, 7, true) // the holder's compensation interferes with assertion 7,
	o.setPrefixSafe(1, 7, true)  // which its executed prefix leaves true
	sink := trace.NewMemorySink(64)
	tr := trace.New(sink)
	defer tr.Close()
	m := NewManager(o)
	m.SetTracer(tr)
	holder, plain := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	holder.Comp = 99
	reserved, exposed := item("reserved"), item("exposed")
	m.AttachExposure(holder, reserved)
	m.AttachExposure(holder, reserved) // idempotent
	m.AttachExposure(plain, exposed)

	for i, c := range []struct {
		name string
		req  spi.LockRequest
		want string
	}{
		{"A refused only by the reservation", spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 7}, "lock_c C [1]"},
		{"A refused by the holder's prefix", spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 8}, "lock_d D [1]"},
		{"a conventional reader", spi.LockRequest{Mode: spi.ModeS, Step: 5}, "lock_d D [1]"},
	} {
		if got := refusal(t, m, spi.TxnID(10+i), reserved, c.req); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// Without a reservation the same assertion passes the mark.
	if err := m.Acquire(spi.NewTxn(20, 2), exposed, spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 7}); err != nil {
		t.Fatalf("A refused by a mark without a reservation: %v", err)
	}

	kinds := make(map[spi.TxnID][]string)
	for _, sh := range m.Snapshot().Shards {
		for _, is := range sh.Items {
			for _, g := range is.Grants {
				kinds[g.Txn] = append(kinds[g.Txn], g.Kind)
			}
		}
	}
	tagged := make(map[string][]string)
	for _, ev := range collect(tr, sink)[trace.KindLockAcquire] {
		if ev.Mode == "D" || ev.Mode == "C" {
			tagged[ev.Item] = append(tagged[ev.Item], ev.Mode)
		}
	}
	for _, c := range []struct {
		txn  spi.TxnID
		it   spi.Item
		want string
	}{{holder.ID, reserved, "D C"}, {plain.ID, exposed, "D"}} {
		if got := strings.Join(kinds[c.txn], " "); got != c.want {
			t.Errorf("T%d's snapshot grants: %q, want %q", c.txn, got, c.want)
		}
		if got := strings.Join(tagged[c.it.String()], " "); got != c.want {
			t.Errorf("trace modes on %v: %q, want %q", c.it, got, c.want)
		}
	}

	holder.AdvanceStep()
	m.AttachExposure(holder, item("later"))
	m.ReleaseStepAbort(holder)
	if held := m.HeldItems(holder); len(held) != 1 || held[0] != reserved {
		t.Fatalf("after the later step's abort T1 holds %v, want only the earlier step's mark", held)
	}
}

// TestRefusalMatrix pins, for every request mode against every kind of
// lock-table entry, whether the request is granted at once or waits, and if
// it waits, the lock-wait stage its span is charged, the tag of the entry
// that refused it, and the transactions its waits-for edges point at. T1
// holds the entry. A queued waiter is T2's, held up by T3: by an X or S lock
// for the intention modes, which nothing else holds up, and otherwise by a D
// mark every request here passes, so that the first refusal a request meets
// there is the waiter's.
func TestRefusalMatrix(t *testing.T) {
	o := newStub()
	o.setInterferes(2, 8, true)  // the entries' step 2 invalidates the requests' assertion 8;
	o.setInterferes(1, 7, true)  // the requests' step 1 invalidates the entries' assertion 7;
	o.setPrefixSafe(5, 8, true)  // a type-5 holder's prefix leaves assertion 8 true, and
	o.setInterferes(99, 8, true) // its compensating step 99 does not;
	o.setInterleave(1, 6, true)  // T3's type-6 mark admits the requests' step 1,
	o.setPrefixSafe(6, 8, true)  // and assertion 8, but not step 2 or assertion 7.
	held := func(mode spi.Mode) spi.LockRequest { return spi.LockRequest{Mode: mode, Step: 2} }
	heldA := spi.LockRequest{Mode: spi.ModeA, Step: 2, Assertion: 7}
	mark := func(typ interference.TxnTypeID, comp interference.StepTypeID) func(*testing.T, *Manager, spi.Item) {
		return func(_ *testing.T, m *Manager, it spi.Item) {
			txn := spi.NewTxn(1, typ)
			txn.Comp = comp
			m.AttachExposure(txn, it)
		}
	}
	lock := func(req spi.LockRequest) func(*testing.T, *Manager, spi.Item) {
		return func(t *testing.T, m *Manager, it spi.Item) {
			if err := m.Acquire(spi.NewTxn(1, 1), it, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	// queued parks T2's req behind T3's blocker on the item.
	queued := func(blocker func(*Manager, spi.Item), req spi.LockRequest) func(*testing.T, *Manager, spi.Item) {
		return func(t *testing.T, m *Manager, it spi.Item) {
			blocker(m, it)
			w := spi.NewTxn(2, 1)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- m.AcquireCtx(ctx, w, it, req) }()
			waitUntil(t, func() bool { return blockedOf(w) != nil })
			t.Cleanup(func() { cancel(); <-done })
		}
	}
	byLock := func(mode spi.Mode) func(*Manager, spi.Item) {
		return func(m *Manager, it spi.Item) { m.Acquire(spi.NewTxn(3, 1), it, spi.LockRequest{Mode: mode, Step: 3}) }
	}
	byMark := func(m *Manager, it spi.Item) { m.AttachExposure(spi.NewTxn(3, 6), it) }

	const g = "granted"
	requests := []spi.LockRequest{conv(spi.ModeIS), conv(spi.ModeIX), conv(spi.ModeS), conv(spi.ModeSIX), conv(spi.ModeX),
		{Mode: spi.ModeA, Step: 1, Assertion: 8}}
	for _, row := range []struct {
		entry string
		setup func(*testing.T, *Manager, spi.Item)
		want  [6]string // IS, IX, S, SIX, X, A
	}{
		{"IS", lock(held(spi.ModeIS)), [6]string{g, g, g, g, "lock_conv IS [1]", g}},
		{"IX", lock(held(spi.ModeIX)), [6]string{g, g, "lock_conv IX [1]", "lock_conv IX [1]", "lock_conv IX [1]", g}},
		{"S", lock(held(spi.ModeS)), [6]string{g, "lock_conv S [1]", g, "lock_conv S [1]", "lock_conv S [1]", g}},
		{"SIX", lock(held(spi.ModeSIX)), [6]string{g, "lock_conv SIX [1]", "lock_conv SIX [1]", "lock_conv SIX [1]", "lock_conv SIX [1]", "lock_conv SIX [1]"}},
		{"X", lock(held(spi.ModeX)), [6]string{"lock_conv X [1]", "lock_conv X [1]", "lock_conv X [1]", "lock_conv X [1]", "lock_conv X [1]", "lock_conv X [1]"}},
		{"A", lock(heldA), [6]string{g, g, g, "lock_a A [1]", "lock_a A [1]", g}},
		{"D mark, no compensation", mark(4, spi.NoStep), [6]string{g, g, "lock_d D [1]", "lock_d D [1]", "lock_d D [1]", "lock_d D [1]"}},
		{"D mark with C reservation", mark(5, 99), [6]string{g, g, "lock_d D [1]", "lock_d D [1]", "lock_d D [1]", "lock_c C [1]"}},
		{"retired X", func(t *testing.T, m *Manager, it spi.Item) {
			txn := spi.NewTxn(1, 1)
			if err := m.Acquire(txn, it, held(spi.ModeX)); err != nil {
				t.Fatal(err)
			}
			m.Retire(txn, 5, 0, false)
		}, [6]string{g, g, g, g, g, g}},
		{"queued IS", queued(byLock(spi.ModeX), conv(spi.ModeIS)), [6]string{"lock_conv X [3]", "lock_conv X [3]", "lock_conv X [3]", "lock_conv X [3]", "lock_conv X [2 3]", g}},
		{"queued IX", queued(byLock(spi.ModeS), conv(spi.ModeIX)), [6]string{g, "lock_conv S [3]", "lock_conv IX [2]", "lock_conv S [2 3]", "lock_conv S [2 3]", g}},
		{"queued S", queued(byMark, held(spi.ModeS)), [6]string{g, "lock_conv S [2]", g, "lock_conv S [2]", "lock_conv S [2]", g}},
		{"queued SIX", queued(byMark, held(spi.ModeSIX)), [6]string{g, "lock_conv SIX [2]", "lock_conv SIX [2]", "lock_conv SIX [2]", "lock_conv SIX [2]", "lock_conv SIX [2]"}},
		{"queued X", queued(byMark, held(spi.ModeX)), [6]string{"lock_conv X [2]", "lock_conv X [2]", "lock_conv X [2]", "lock_conv X [2]", "lock_conv X [2]", "lock_conv X [2]"}},
		{"queued A", queued(byMark, heldA), [6]string{g, g, g, "lock_a A [2]", "lock_a A [2]", g}},
	} {
		for i, req := range requests {
			t.Run(row.entry+"/"+req.Mode.String(), func(t *testing.T) {
				m := NewManager(o)
				it := item("x")
				row.setup(t, m, it)
				if got := refusal(t, m, 10, it, req); got != row.want[i] {
					t.Errorf("%v against %s: %s, want %s", req.Mode, row.entry, got, row.want[i])
				}
			})
		}
	}
}

// refusal runs req for a fresh transaction. Granted at once, the request is
// released again and refusal returns "granted"; blocked, it returns the
// lock-wait stage its span was charged, the tag of the entry that refused it
// and its waits-for edges' targets, then withdraws it.
func refusal(t *testing.T, m *Manager, id spi.TxnID, it spi.Item, req spi.LockRequest) string {
	t.Helper()
	txn := spi.NewTxn(id, 2)
	a := trace.NewAnatomy(trace.AnatomyConfig{})
	txn.Span = a.Start(0, time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(ctx, txn, it, req) }()
	var err error
	granted := false
	waitUntil(t, func() bool {
		select {
		case err = <-done:
			granted = true
			return true
		default:
			return blockedOf(txn) != nil
		}
	})
	if granted {
		if err != nil {
			t.Fatalf("T%d: %v", id, err)
		}
		m.ReleaseAll(txn)
		return "granted"
	}
	var by []spi.TxnID
	for _, e := range m.Snapshot().Edges {
		if e.From == id {
			by = append(by, e.To)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("T%d: got %v, want the withdrawn wait", id, err)
	}
	txn.Span.Finish()
	rec := a.Recent()[0]
	for _, s := range []trace.SpanStage{trace.StageLockConv, trace.StageLockA, trace.StageLockD, trace.StageLockC} {
		if rec.Stages[s] > 0 {
			return fmt.Sprintf("%v %s %v", s, rec.Events[len(rec.Events)-1].Mode, by)
		}
	}
	t.Fatalf("T%d: no lock-wait stage charged", id)
	return ""
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
