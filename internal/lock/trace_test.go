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

// spanOf gives txn a span of its own; the returned func finishes it and
// returns its event history. Call it once txn's lock calls have returned.
func spanOf(txn *spi.Txn) func() []trace.SpanEvent {
	a := trace.NewAnatomy(trace.AnatomyConfig{})
	txn.Span = a.Start(0, time.Time{})
	return func() []trace.SpanEvent {
		txn.Span.Finish()
		txn.Span = nil
		return a.Recent()[0].Events
	}
}

// oneEvent fails unless events is exactly one entry of kind on it, refused
// by an entry tagged mode, with a positive wait.
func oneEvent(t *testing.T, who string, events []trace.SpanEvent, kind trace.Kind, mode string, it spi.Item) {
	t.Helper()
	if len(events) != 1 {
		t.Fatalf("%s: span events %+v, want one %v", who, events, kind)
	}
	if ev := events[0]; ev.Kind != kind || ev.Mode != mode || ev.Item != it.String() || ev.Dur <= 0 {
		t.Fatalf("%s: span event %+v, want %v refused by %q on %v with a positive wait", who, ev, kind, mode, it)
	}
}

// TestTraceLockLifecycleEvents: a span records a lock's waits, not its
// acquisitions. A grant or a conversion that needs no wait adds nothing; a
// blocked request adds one lock.grant naming the item, the mode of the
// holder that refused it and the time waited.
func TestTraceLockLifecycleEvents(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	events1, events2 := spanOf(t1), spanOf(t2)
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
	waitUntil(t, func() bool { return blockedOf(t2) != nil })
	m.ReleaseAll(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t2)

	if evs := events1(); len(evs) != 0 {
		t.Fatalf("T1 never waited, yet its span holds %+v", evs)
	}
	oneEvent(t, "T2", events2(), trace.KindLockGrant, "X", it)
}

// TestTraceDeadlockVictimAndADCModes: a wait refused by an assertional lock,
// an exposure mark or a reservation carries the paper's A, D or C tag in the
// waiter's span, and a request that closes a waits-for cycle records itself
// as the victim.
func TestTraceDeadlockVictimAndADCModes(t *testing.T) {
	o := newStub()
	o.setInterferes(1, 7, true)  // a step-1 writer invalidates assertion 7,
	o.setPrefixSafe(1, 7, true)  // which the holder's executed prefix leaves true
	o.setInterferes(99, 7, true) // and its compensating step does not
	m := NewManager(o)

	holder := spi.NewTxn(1, 1)
	holder.Comp = 99
	asserted, marked := item("asserted"), item("marked")
	if err := m.Acquire(holder, asserted, spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 7}); err != nil {
		t.Fatal(err)
	}
	m.AttachExposure(holder, marked)

	type blocked struct {
		txn    *spi.Txn
		it     spi.Item
		req    spi.LockRequest
		tag    string
		events func() []trace.SpanEvent
		done   chan error
	}
	var waits []*blocked
	for i, c := range []struct {
		it  spi.Item
		req spi.LockRequest
		tag string
	}{
		{asserted, conv(spi.ModeX), "A"},
		{marked, spi.LockRequest{Mode: spi.ModeS, Step: 5}, "D"},
		{marked, spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 7}, "C"},
	} {
		b := &blocked{txn: spi.NewTxn(spi.TxnID(10+i), 2), it: c.it, req: c.req, tag: c.tag, done: make(chan error, 1)}
		b.events = spanOf(b.txn)
		go func() { b.done <- m.Acquire(b.txn, b.it, b.req) }()
		waitUntil(t, func() bool { return blockedOf(b.txn) != nil })
		waits = append(waits, b)
	}
	m.ReleaseAll(holder)
	for _, b := range waits {
		if err := <-b.done; err != nil {
			t.Fatalf("T%d: %v", b.txn.ID, err)
		}
		m.ReleaseAll(b.txn)
		oneEvent(t, fmt.Sprintf("T%d", b.txn.ID), b.events(), trace.KindLockGrant, b.tag, b.it)
	}

	// Self-victim deadlock: t3 closes the cycle with t2.
	t2, t3 := spi.NewTxn(2, 1), spi.NewTxn(3, 1)
	events2, events3 := spanOf(t2), spanOf(t3)
	a, b := item("a"), item("b")
	m.Acquire(t2, a, conv(spi.ModeX))
	m.Acquire(t3, b, conv(spi.ModeX))
	got := make(chan error, 1)
	go func() { got <- m.Acquire(t2, b, conv(spi.ModeX)) }()
	waitUntil(t, func() bool { return blockedOf(t2) != nil })
	if err := m.Acquire(t3, a, conv(spi.ModeX)); !errors.Is(err, spi.ErrDeadlock) {
		t.Fatalf("got %v, want spi.ErrDeadlock", err)
	}
	m.ReleaseAll(t3)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t2)
	evs := events3()
	if len(evs) != 1 || evs[0].Kind != trace.KindDeadlockVictim || evs[0].Item != a.String() {
		t.Fatalf("victim T3's span events = %+v, want one lock.victim on %v", evs, a)
	}
	oneEvent(t, "T2", events2(), trace.KindLockGrant, "X", b)
}

// TestTraceTimeoutAndCancelEvents: a wait ended by the wait budget records
// lock.timeout, one withdrawn by the caller's context lock.abort.
func TestTraceTimeoutAndCancelEvents(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 30 * time.Millisecond

	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	events2 := spanOf(t2)
	it := item("x")
	m.Acquire(t1, it, conv(spi.ModeX))
	if err := m.Acquire(t2, it, conv(spi.ModeX)); !errors.Is(err, spi.ErrTimeout) {
		t.Fatalf("got %v, want spi.ErrTimeout", err)
	}
	oneEvent(t, "T2", events2(), trace.KindLockTimeout, "X", it)

	m.WaitTimeout = 0
	t3 := spi.NewTxn(3, 1)
	events3 := spanOf(t3)
	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- m.AcquireCtx(ctx, t3, it, conv(spi.ModeX)) }()
	waitUntil(t, func() bool { return blockedOf(t3) != nil })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	oneEvent(t, "T3", events3(), trace.KindLockAbort, "X", it)
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
// reservation, yet the wait stage, the span and the snapshot still say which
// of the two refused a request or is held; without a compensating step the
// mark is an exposure only; a step abort drops only that step's marks.
func TestMarkKeepsDAndCApart(t *testing.T) {
	o := newStub()
	o.setInterferes(99, 7, true) // the holder's compensation interferes with assertion 7,
	o.setPrefixSafe(1, 7, true)  // which its executed prefix leaves true
	m := NewManager(o)
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
	for _, c := range []struct {
		txn  spi.TxnID
		want string
	}{{holder.ID, "D C"}, {plain.ID, "D"}} {
		if got := strings.Join(kinds[c.txn], " "); got != c.want {
			t.Errorf("T%d's snapshot grants: %q, want %q", c.txn, got, c.want)
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
