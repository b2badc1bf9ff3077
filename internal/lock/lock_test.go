package lock

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
)

// stubOracle gives tests precise control over interference answers. It is
// mutex-guarded because tests flip answers while concurrent Acquires are
// blocked on the manager.
type stubOracle struct {
	mu           sync.Mutex
	interferes   map[[2]int32]bool // (step, assertion)
	prefixSafe   map[[2]int32]bool // (txnType, assertion) ignoring step count
	interleave   map[[2]int32]bool // (step, holderType) at every breakpoint
	interleaveAt map[[3]int32]bool // (step, holderType, breakpoint)
}

func newStub() *stubOracle {
	return &stubOracle{
		interferes:   map[[2]int32]bool{},
		prefixSafe:   map[[2]int32]bool{},
		interleave:   map[[2]int32]bool{},
		interleaveAt: map[[3]int32]bool{},
	}
}

func (o *stubOracle) set(m map[[2]int32]bool, a, b int32, v bool) {
	o.mu.Lock()
	m[[2]int32{a, b}] = v
	o.mu.Unlock()
}

func (o *stubOracle) setInterferes(s, a int32, v bool) { o.set(o.interferes, s, a, v) }
func (o *stubOracle) setPrefixSafe(t, a int32, v bool) { o.set(o.prefixSafe, t, a, v) }
func (o *stubOracle) setInterleave(s, h int32, v bool) { o.set(o.interleave, s, h, v) }

// setInterleaveAt allows step type s to interleave with holder type h at
// breakpoint b only.
func (o *stubOracle) setInterleaveAt(s, h, b int32) {
	o.mu.Lock()
	o.interleaveAt[[3]int32{s, h, b}] = true
	o.mu.Unlock()
}

func (o *stubOracle) get(m map[[2]int32]bool, a, b int32) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return m[[2]int32{a, b}]
}

func (o *stubOracle) Interferes(s interference.StepTypeID, a interference.AssertionID) bool {
	return o.get(o.interferes, int32(s), int32(a))
}
func (o *stubOracle) PrefixInterferes(t interference.TxnTypeID, _ int, a interference.AssertionID) bool {
	return !o.get(o.prefixSafe, int32(t), int32(a))
}
func (o *stubOracle) MayInterleave(s interference.StepTypeID, h interference.TxnTypeID, b int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.interleave[[2]int32{int32(s), int32(h)}] || o.interleaveAt[[3]int32{int32(s), int32(h), int32(b)}]
}

func (o *stubOracle) StepName(s interference.StepTypeID) string { return fmt.Sprintf("step%d", s) }

func item(name string) spi.Item { return spi.RowItem(name, "k") }

func conv(mode spi.Mode) spi.LockRequest { return spi.LockRequest{Mode: mode, Step: 1} }

func TestConventionalCompatMatrix(t *testing.T) {
	want := map[[2]spi.Mode]bool{
		{spi.ModeIS, spi.ModeIS}: true, {spi.ModeIS, spi.ModeIX}: true, {spi.ModeIS, spi.ModeS}: true, {spi.ModeIS, spi.ModeSIX}: true, {spi.ModeIS, spi.ModeX}: false,
		{spi.ModeIX, spi.ModeIS}: true, {spi.ModeIX, spi.ModeIX}: true, {spi.ModeIX, spi.ModeS}: false, {spi.ModeIX, spi.ModeSIX}: false, {spi.ModeIX, spi.ModeX}: false,
		{spi.ModeS, spi.ModeIS}: true, {spi.ModeS, spi.ModeIX}: false, {spi.ModeS, spi.ModeS}: true, {spi.ModeS, spi.ModeSIX}: false, {spi.ModeS, spi.ModeX}: false,
		{spi.ModeSIX, spi.ModeIS}: true, {spi.ModeSIX, spi.ModeIX}: false, {spi.ModeSIX, spi.ModeS}: false, {spi.ModeSIX, spi.ModeSIX}: false, {spi.ModeSIX, spi.ModeX}: false,
		{spi.ModeX, spi.ModeIS}: false, {spi.ModeX, spi.ModeIX}: false, {spi.ModeX, spi.ModeS}: false, {spi.ModeX, spi.ModeSIX}: false, {spi.ModeX, spi.ModeX}: false,
	}
	for pair, compat := range want {
		if got := conventionalCompat(pair[0], pair[1]); got != compat {
			t.Errorf("compat(%v,%v) = %v, want %v", pair[0], pair[1], got, compat)
		}
	}
}

// The compatibility matrix must be symmetric.
func TestConventionalCompatSymmetricQuick(t *testing.T) {
	modes := []spi.Mode{spi.ModeIS, spi.ModeIX, spi.ModeS, spi.ModeSIX, spi.ModeX}
	f := func(i, j uint8) bool {
		a, b := modes[int(i)%len(modes)], modes[int(j)%len(modes)]
		return conventionalCompat(a, b) == conventionalCompat(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sup must be an upper bound of both arguments and idempotent.
func TestSupQuick(t *testing.T) {
	modes := []spi.Mode{spi.ModeIS, spi.ModeIX, spi.ModeS, spi.ModeSIX, spi.ModeX}
	f := func(i, j uint8) bool {
		a, b := modes[int(i)%len(modes)], modes[int(j)%len(modes)]
		s := sup(a, b)
		return covers(s, a) && covers(s, b) && sup(a, a) == a && sup(s, a) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedGrantsCoexist(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("a")
	if err := m.Acquire(t1, it, conv(spi.ModeS)); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, it, conv(spi.ModeS)); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveBlocksAndReleases(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("a")
	if err := m.Acquire(t1, it, conv(spi.ModeX)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(t2, it, conv(spi.ModeX)) }()
	select {
	case err := <-got:
		t.Fatalf("second X granted while first held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(t1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

func TestReentrancyAndConversion(t *testing.T) {
	m := NewManager(newStub())
	t1 := spi.NewTxn(1, 1)
	it := item("a")
	// S then S: no-op. S then X: conversion. X then S: covered.
	for _, mode := range []spi.Mode{spi.ModeS, spi.ModeS, spi.ModeX, spi.ModeS, spi.ModeIS, spi.ModeIX} {
		if err := m.Acquire(t1, it, conv(mode)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
	if !m.HoldsConventional(1, it, spi.ModeX) {
		t.Fatal("conversion to X lost")
	}
}

func TestConversionSIX(t *testing.T) {
	m := NewManager(newStub())
	t1 := spi.NewTxn(1, 1)
	tbl := spi.TableItem("t")
	if err := m.Acquire(t1, tbl, conv(spi.ModeS)); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t1, tbl, conv(spi.ModeIX)); err != nil {
		t.Fatal(err)
	}
	if !m.HoldsConventional(1, tbl, spi.ModeSIX) {
		t.Fatal("S + IX should convert to SIX")
	}
}

func TestConversionWaitsForOtherReaders(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("a")
	m.Acquire(t1, it, conv(spi.ModeS))
	m.Acquire(t2, it, conv(spi.ModeS))
	done := make(chan error, 1)
	go func() { done <- m.Acquire(t1, it, conv(spi.ModeX)) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while another reader held S")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(t2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFIFOFairnessNoWriterStarvation(t *testing.T) {
	m := NewManager(newStub())
	it := item("a")
	r1 := spi.NewTxn(1, 1)
	m.Acquire(r1, it, conv(spi.ModeS))
	// Writer queues.
	wDone := make(chan error, 1)
	w := spi.NewTxn(2, 1)
	go func() { wDone <- m.Acquire(w, it, conv(spi.ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	// A later reader must queue behind the writer, not jump it.
	rDone := make(chan error, 1)
	r2 := spi.NewTxn(3, 1)
	go func() { rDone <- m.Acquire(r2, it, conv(spi.ModeS)) }()
	select {
	case <-rDone:
		t.Fatal("late reader jumped the queued writer")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(r1)
	if err := <-wDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(w)
	if err := <-rDone; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockVictimIsCycleCloser(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	a, b := item("a"), item("b")
	m.Acquire(t1, a, conv(spi.ModeX))
	m.Acquire(t2, b, conv(spi.ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(t1, b, conv(spi.ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	// t2 closes the cycle and must be the victim.
	err := m.Acquire(t2, a, conv(spi.ModeX))
	if !errors.Is(err, spi.ErrDeadlock) {
		t.Fatalf("cycle closer got %v, want spi.ErrDeadlock", err)
	}
	// t1 is still waiting; releasing t2 frees it.
	m.ReleaseAll(t2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	if m.Stats().Deadlocks == 0 {
		t.Fatal("deadlock not counted")
	}
}

func TestCompensatingStepNeverVictim(t *testing.T) {
	m := NewManager(newStub())
	cs, fw := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	a, b := item("a"), item("b")
	m.Acquire(cs, a, conv(spi.ModeX))
	m.Acquire(fw, b, conv(spi.ModeX))
	fwDone := make(chan error, 1)
	go func() { fwDone <- m.Acquire(fw, a, conv(spi.ModeX)) }() // fw waits on cs
	time.Sleep(20 * time.Millisecond)
	// The compensating step closes the cycle: the forward waiter dies, not it.
	req := spi.LockRequest{Mode: spi.ModeX, Step: 1, Compensating: true}
	csDone := make(chan error, 1)
	go func() { csDone <- m.Acquire(cs, b, req) }()
	if err := <-fwDone; !errors.Is(err, spi.ErrAborted) {
		t.Fatalf("forward waiter got %v, want spi.ErrAborted", err)
	}
	// After the forward txn releases, the compensating request completes.
	m.ReleaseAll(fw)
	if err := <-csDone; err != nil {
		t.Fatal(err)
	}
	if m.Stats().VictimsForComp != 1 {
		t.Fatalf("VictimsForComp = %d", m.Stats().VictimsForComp)
	}
}

func TestAssertionalLockBlocksInterferingWriter(t *testing.T) {
	o := newStub()
	o.setInterferes(7, 42, true) // step 7 interferes with assertion 42
	m := NewManager(o)
	holder, writer := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("x")
	if err := m.Acquire(holder, it, spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 42}); err != nil {
		t.Fatal(err)
	}
	// A non-interfering writer passes.
	ok := spi.NewTxn(3, 1)
	if err := m.Acquire(ok, it, spi.LockRequest{Mode: spi.ModeX, Step: 9}); err != nil {
		t.Fatalf("non-interfering writer blocked: %v", err)
	}
	m.ReleaseAll(ok)
	// The interfering writer waits until the assertion is released.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(writer, it, spi.LockRequest{Mode: spi.ModeX, Step: 7}) }()
	select {
	case <-done:
		t.Fatal("interfering writer not blocked by assertional lock")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAssertion(holder, 42)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestAssertionalLocksNeverConflictWithEachOtherOrReaders(t *testing.T) {
	o := newStub()
	o.setInterferes(1, 1, true)
	m := NewManager(o)
	t1, t2, t3 := spi.NewTxn(1, 1), spi.NewTxn(2, 1), spi.NewTxn(3, 1)
	it := item("x")
	if err := m.Acquire(t1, it, spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, it, spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t3, it, spi.LockRequest{Mode: spi.ModeS, Step: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestExposureIsolatesUndeclaredSteps(t *testing.T) {
	o := newStub()
	o.setInterleave(5, 1, true) // step 5 may see txn type 1's state
	m := NewManager(o)
	holder := spi.NewTxn(1, 1) // txn type 1
	it := item("x")
	m.AttachExposure(holder, it)
	// Declared step passes.
	friend := spi.NewTxn(2, 2)
	if err := m.Acquire(friend, it, spi.LockRequest{Mode: spi.ModeS, Step: 5}); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(friend)
	// A legacy step blocks until the holder commits.
	legacy := spi.NewTxn(3, interference.LegacyTxn)
	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(legacy, it, spi.LockRequest{Mode: spi.ModeS, Step: interference.LegacyStep})
	}()
	select {
	case <-done:
		t.Fatal("legacy step read exposed intermediate state")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(holder)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestExposureIntentionModesPass(t *testing.T) {
	m := NewManager(newStub())
	holder := spi.NewTxn(1, 1)
	it := spi.PartitionItem("t", "p")
	m.AttachExposure(holder, it)
	other := spi.NewTxn(2, 2)
	if err := m.Acquire(other, it, spi.LockRequest{Mode: spi.ModeIX, Step: 9}); err != nil {
		t.Fatal("IX should pass exposure (checked at finer granule)")
	}
}

// acquireAsync issues a request that must wait, on its own goroutine,
// returns once it is queued, and hands back its outcome's channel.
func acquireAsync(t *testing.T, m *Manager, txn *spi.Txn, it spi.Item, req spi.LockRequest) <-chan error {
	t.Helper()
	queued := m.Snapshot().WaiterCount()
	done := make(chan error, 1)
	go func() { done <- m.Acquire(txn, it, req) }()
	for m.Snapshot().WaiterCount() == queued {
		select {
		case err := <-done:
			t.Fatalf("T%d's request returned (%v) instead of waiting", txn.ID, err)
		case <-time.After(time.Millisecond):
		}
	}
	return done
}

// stillBlocked fails unless the request behind done is still waiting.
func stillBlocked(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s: the waiter returned (%v)", what, err)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestExposureBreakpointSensitivity: a request an exposure mark refuses is
// re-examined at the holder's next step boundary, and at every one after as
// long as it waits, however the waiter and the mark met: a non-final Retire
// revisits exactly the holder's contested marks. A mark that falls with its
// aborted step leaves no contested entry behind. The holder is of type 1, the
// waiter's step of type 5; each case ends with the table checked and empty.
func TestExposureBreakpointSensitivity(t *testing.T) {
	read := spi.LockRequest{Mode: spi.ModeS, Step: 5}
	cases := []struct {
		name string
		run  func(t *testing.T, m *Manager, o *stubOracle, holder *spi.Txn, others func() *spi.Txn)
	}{
		{"after_mark", func(t *testing.T, m *Manager, o *stubOracle, holder *spi.Txn, others func() *spi.Txn) {
			it := item("x")
			m.AttachExposure(holder, it)
			done := acquireAsync(t, m, others(), it, read)
			stillBlocked(t, done, "disallowed breakpoint")
			o.setInterleave(5, 1, true)
			holder.AdvanceStep()
			m.Retire(holder, 0, 0, false)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		// A waiter queues before the holder marks the item.
		{"before_mark", func(t *testing.T, m *Manager, o *stubOracle, holder *spi.Txn, others func() *spi.Txn) {
			it := item("x")
			if err := m.Acquire(holder, it, conv(spi.ModeX)); err != nil {
				t.Fatal(err)
			}
			done := acquireAsync(t, m, others(), it, read)
			stillBlocked(t, done, "holder's X")
			m.AttachExposure(holder, it) // the state already has a waiter
			holder.AdvanceStep()
			m.Retire(holder, 1, 1, false) // the X goes; the mark refuses
			stillBlocked(t, done, "the mark at breakpoint 1")
			if err := checkInvariants(m, false); err != nil {
				t.Fatal(err)
			}
			o.setInterleave(5, 1, true)
			holder.AdvanceStep()
			m.Retire(holder, 2, 2, false) // only the mark can be revisited now
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		// A waiter blocked first by a third X, then by the mark alone.
		{"third_x", func(t *testing.T, m *Manager, o *stubOracle, holder *spi.Txn, others func() *spi.Txn) {
			it := item("x")
			third := others()
			if err := m.Acquire(third, it, conv(spi.ModeX)); err != nil {
				t.Fatal(err)
			}
			m.AttachExposure(holder, it) // no waiter yet
			done := acquireAsync(t, m, others(), it, read)
			stillBlocked(t, done, "third's X")
			m.ReleaseAll(third)
			stillBlocked(t, done, "the mark alone")
			o.setInterleave(5, 1, true)
			holder.AdvanceStep()
			m.Retire(holder, 0, 0, false)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		// Refused at the next boundary, granted at the one after.
		{"breakpoint_2", func(t *testing.T, m *Manager, o *stubOracle, holder *spi.Txn, others func() *spi.Txn) {
			it := item("x")
			o.setInterleaveAt(5, 1, 2)
			m.AttachExposure(holder, it)
			done := acquireAsync(t, m, others(), it, read)
			stillBlocked(t, done, "breakpoint 0")
			holder.AdvanceStep()
			m.Retire(holder, 0, 0, false)
			stillBlocked(t, done, "breakpoint 1")
			if err := checkInvariants(m, false); err != nil {
				t.Fatal(err)
			}
			holder.AdvanceStep()
			m.Retire(holder, 0, 0, false)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		// The mark falls with its step; no contested entry dangles.
		{"step_abort", func(t *testing.T, m *Manager, o *stubOracle, holder *spi.Txn, others func() *spi.Txn) {
			it := item("x")
			// An A entry the abort keeps holds the holder's set in the shard.
			if err := m.Acquire(holder, item("y"), spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 7}); err != nil {
				t.Fatal(err)
			}
			holder.AdvanceStep()
			m.AttachExposure(holder, it) // the step that then fails
			done := acquireAsync(t, m, others(), it, read)
			stillBlocked(t, done, "the mark")
			m.ReleaseStepAbort(holder)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := checkInvariants(m, false); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := newStub()
			m := NewManagerWithShards(o, 1) // one shard: every entry in one held set
			m.WaitTimeout = 5 * time.Second
			holder := spi.NewTxn(1, 1)
			txns := []*spi.Txn{holder}
			others := func() *spi.Txn {
				txns = append(txns, spi.NewTxn(spi.TxnID(len(txns)+1), 2))
				return txns[len(txns)-1]
			}
			c.run(t, m, o, holder, others)
			for _, txn := range txns {
				m.ReleaseAll(txn)
			}
			if err := checkInvariants(m, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReservationBlocksInterferingAssertion(t *testing.T) {
	o := newStub()
	o.setInterferes(99, 7, true) // CS type 99 interferes with assertion 7
	o.setPrefixSafe(1, 7, true)  // the exposure half refuses neither
	o.setPrefixSafe(1, 8, true)
	m := NewManager(o)
	owner := spi.NewTxn(1, 1)
	owner.Comp = 99
	it := item("x")
	m.AttachExposure(owner, it)
	// Interfering assertional request blocks.
	other := spi.NewTxn(2, 2)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(other, it, spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 7}) }()
	select {
	case <-done:
		t.Fatal("assertion the compensation would invalidate was granted")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(owner)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Non-interfering assertion passes.
	m.AttachExposure(owner, it)
	third := spi.NewTxn(3, 2)
	if err := m.Acquire(third, it, spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestAssertionVsExposurePrefixCheck(t *testing.T) {
	o := newStub()
	o.setPrefixSafe(1, 7, true) // txn type 1's prefixes leave assertion 7 true
	m := NewManager(o)
	holder := spi.NewTxn(1, 1)
	it := item("x")
	m.AttachExposure(holder, it)
	// Safe-prefix assertion is granted over the exposure.
	safe := spi.NewTxn(2, 2)
	if err := m.Acquire(safe, it, spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 7}); err != nil {
		t.Fatal(err)
	}
	// Unknown assertion conservatively blocks.
	unsafe := spi.NewTxn(3, 2)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(unsafe, it, spi.LockRequest{Mode: spi.ModeA, Step: 3, Assertion: 8}) }()
	select {
	case <-done:
		t.Fatal("assertion locked over interfering prefix")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(holder)
	<-done
}

func TestReleaseStepAbortKeepsAssertionsDropsStepMarks(t *testing.T) {
	m := NewManager(newStub())
	txn := spi.NewTxn(1, 1)
	it := item("x")
	m.Acquire(txn, it, spi.LockRequest{Mode: spi.ModeA, Step: 1, Assertion: 7})
	m.Acquire(txn, it, conv(spi.ModeX))
	txn.SetCompletedSteps(2)
	m.AttachExposure(txn, it) // stepSeq = 2 (current step)
	m.ReleaseStepAbort(txn)
	// Conventional and this step's exposure gone; assertional retained.
	if m.HoldsConventional(1, it, spi.ModeS) {
		t.Fatal("conventional lock survived step abort")
	}
	items := m.HeldItems(txn)
	if len(items) != 1 {
		t.Fatalf("held items after abort: %v", items)
	}
	// Exposure from an earlier step survives a later step's abort.
	txn2 := spi.NewTxn(2, 1)
	m.AttachExposure(txn2, it) // at step 0
	txn2.SetCompletedSteps(3)
	m.ReleaseStepAbort(txn2)
	legacy := spi.NewTxn(9, interference.LegacyTxn)
	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(legacy, it, spi.LockRequest{Mode: spi.ModeX, Step: interference.LegacyStep})
	}()
	select {
	case <-done:
		t.Fatal("early-step exposure dropped by later step abort")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(txn2)
	m.ReleaseAll(txn)
	<-done
}

// cancelWait kills txn's blocked request, if any, the way deadlock detection
// kills a victim it chose on a compensation's behalf.
func cancelWait(txn *spi.Txn) {
	if w := blockedOf(txn); w != nil {
		w.kill(spi.ErrAborted)
	}
}

func TestCancelWait(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("x")
	m.Acquire(t1, it, conv(spi.ModeX))
	done := make(chan error, 1)
	go func() { done <- m.Acquire(t2, it, conv(spi.ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	cancelWait(t2)
	if err := <-done; !errors.Is(err, spi.ErrAborted) {
		t.Fatalf("got %v, want spi.ErrAborted", err)
	}
}

func TestWaitTimeout(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 30 * time.Millisecond
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	it := item("x")
	m.Acquire(t1, it, conv(spi.ModeX))
	start := time.Now()
	err := m.Acquire(t2, it, conv(spi.ModeX))
	if !errors.Is(err, spi.ErrTimeout) {
		t.Fatalf("got %v, want spi.ErrTimeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout took too long")
	}
	// After the timeout the queue must be clean: release and retry works.
	m.ReleaseAll(t1)
	if err := m.Acquire(t2, it, conv(spi.ModeX)); err != nil {
		t.Fatal(err)
	}
}

func TestVictimRemovalUnblocksLaterWaiters(t *testing.T) {
	// A waiter queued behind a deadlock victim must be re-examined when the
	// victim is removed (the lost-wakeup regression).
	m := NewManager(newStub())
	t1, t2, t3 := spi.NewTxn(1, 1), spi.NewTxn(2, 1), spi.NewTxn(3, 1)
	a, b := item("a"), item("b")
	m.Acquire(t1, a, conv(spi.ModeX))
	m.Acquire(t2, b, conv(spi.ModeX))
	done1 := make(chan error, 1)
	go func() { done1 <- m.Acquire(t1, b, conv(spi.ModeX)) }() // t1 waits for t2
	time.Sleep(20 * time.Millisecond)
	done3 := make(chan error, 1)
	go func() { done3 <- m.Acquire(t3, b, conv(spi.ModeS)) }() // t3 queues behind t1
	time.Sleep(20 * time.Millisecond)
	// t2 closes the cycle: victim. t1 still waits; t3 still waits.
	if err := m.Acquire(t2, a, conv(spi.ModeX)); !errors.Is(err, spi.ErrDeadlock) {
		t.Fatal("expected deadlock")
	}
	m.ReleaseAll(t2) // t1 gets b, t3 remains behind t1's X
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t1)
	if err := <-done3; err != nil {
		t.Fatal(err)
	}
}

func TestStressManyTxnsNoLeaks(t *testing.T) {
	o := newStub()
	m := NewManager(o)
	m.WaitTimeout = 5 * time.Second
	var wg sync.WaitGroup
	items := []spi.Item{item("a"), item("b"), item("c"), item("d")}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				txn := spi.NewTxn(spi.TxnID(g*1000+i+1), 1)
				for j, it := range items {
					mode := spi.ModeS
					if (g+i+j)%3 == 0 {
						mode = spi.ModeX
					}
					if err := m.Acquire(txn, it, conv(mode)); err != nil {
						break // deadlock victim: give up this txn
					}
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	if err := checkInvariants(m, true); err != nil {
		t.Fatal(err)
	}
	// Everything must be released: a fresh X on every item succeeds at once.
	probe := spi.NewTxn(999999, 1)
	for _, it := range items {
		if err := m.Acquire(probe, it, conv(spi.ModeX)); err != nil {
			t.Fatalf("leaked lock on %v: %v", it, err)
		}
	}
}
