package lock

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"accdb/internal/interference"
)

// stubOracle gives tests precise control over interference answers. It is
// mutex-guarded because tests flip answers while concurrent Acquires are
// blocked on the manager.
type stubOracle struct {
	mu         sync.Mutex
	interferes map[[2]int32]bool // (step, assertion)
	prefixSafe map[[2]int32]bool // (txnType, assertion) ignoring step count
	interleave map[[2]int32]bool // (step, holderType)
}

func newStub() *stubOracle {
	return &stubOracle{
		interferes: map[[2]int32]bool{},
		prefixSafe: map[[2]int32]bool{},
		interleave: map[[2]int32]bool{},
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
func (o *stubOracle) MayInterleave(s interference.StepTypeID, h interference.TxnTypeID, _ int) bool {
	return o.get(o.interleave, int32(s), int32(h))
}

func item(name string) Item { return RowItem(name, "k") }

func conv(mode Mode) Request { return Request{Mode: mode, Step: 1} }

func TestConventionalCompatMatrix(t *testing.T) {
	want := map[[2]Mode]bool{
		{ModeIS, ModeIS}: true, {ModeIS, ModeIX}: true, {ModeIS, ModeS}: true, {ModeIS, ModeSIX}: true, {ModeIS, ModeX}: false,
		{ModeIX, ModeIS}: true, {ModeIX, ModeIX}: true, {ModeIX, ModeS}: false, {ModeIX, ModeSIX}: false, {ModeIX, ModeX}: false,
		{ModeS, ModeIS}: true, {ModeS, ModeIX}: false, {ModeS, ModeS}: true, {ModeS, ModeSIX}: false, {ModeS, ModeX}: false,
		{ModeSIX, ModeIS}: true, {ModeSIX, ModeIX}: false, {ModeSIX, ModeS}: false, {ModeSIX, ModeSIX}: false, {ModeSIX, ModeX}: false,
		{ModeX, ModeIS}: false, {ModeX, ModeIX}: false, {ModeX, ModeS}: false, {ModeX, ModeSIX}: false, {ModeX, ModeX}: false,
	}
	for pair, compat := range want {
		if got := conventionalCompat(pair[0], pair[1]); got != compat {
			t.Errorf("compat(%v,%v) = %v, want %v", pair[0], pair[1], got, compat)
		}
	}
}

// The compatibility matrix must be symmetric.
func TestConventionalCompatSymmetricQuick(t *testing.T) {
	modes := []Mode{ModeIS, ModeIX, ModeS, ModeSIX, ModeX}
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
	modes := []Mode{ModeIS, ModeIX, ModeS, ModeSIX, ModeX}
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
	t1, t2 := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	it := item("a")
	if err := m.Acquire(t1, it, conv(ModeS)); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, it, conv(ModeS)); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveBlocksAndReleases(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	it := item("a")
	if err := m.Acquire(t1, it, conv(ModeX)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(t2, it, conv(ModeX)) }()
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
	t1 := NewTxnInfo(1, 1)
	it := item("a")
	// S then S: no-op. S then X: conversion. X then S: covered.
	for _, mode := range []Mode{ModeS, ModeS, ModeX, ModeS, ModeIS, ModeIX} {
		if err := m.Acquire(t1, it, conv(mode)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
	if !m.HoldsConventional(1, it, ModeX) {
		t.Fatal("conversion to X lost")
	}
}

func TestConversionSIX(t *testing.T) {
	m := NewManager(newStub())
	t1 := NewTxnInfo(1, 1)
	tbl := TableItem("t")
	if err := m.Acquire(t1, tbl, conv(ModeS)); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t1, tbl, conv(ModeIX)); err != nil {
		t.Fatal(err)
	}
	if !m.HoldsConventional(1, tbl, ModeSIX) {
		t.Fatal("S + IX should convert to SIX")
	}
}

func TestConversionWaitsForOtherReaders(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	it := item("a")
	m.Acquire(t1, it, conv(ModeS))
	m.Acquire(t2, it, conv(ModeS))
	done := make(chan error, 1)
	go func() { done <- m.Acquire(t1, it, conv(ModeX)) }()
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
	r1 := NewTxnInfo(1, 1)
	m.Acquire(r1, it, conv(ModeS))
	// Writer queues.
	wDone := make(chan error, 1)
	w := NewTxnInfo(2, 1)
	go func() { wDone <- m.Acquire(w, it, conv(ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	// A later reader must queue behind the writer, not jump it.
	rDone := make(chan error, 1)
	r2 := NewTxnInfo(3, 1)
	go func() { rDone <- m.Acquire(r2, it, conv(ModeS)) }()
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
	t1, t2 := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	a, b := item("a"), item("b")
	m.Acquire(t1, a, conv(ModeX))
	m.Acquire(t2, b, conv(ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(t1, b, conv(ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	// t2 closes the cycle and must be the victim.
	err := m.Acquire(t2, a, conv(ModeX))
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle closer got %v, want ErrDeadlock", err)
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
	cs, fw := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	a, b := item("a"), item("b")
	m.Acquire(cs, a, conv(ModeX))
	m.Acquire(fw, b, conv(ModeX))
	fwDone := make(chan error, 1)
	go func() { fwDone <- m.Acquire(fw, a, conv(ModeX)) }() // fw waits on cs
	time.Sleep(20 * time.Millisecond)
	// The compensating step closes the cycle: the forward waiter dies, not it.
	req := Request{Mode: ModeX, Step: 1, Compensating: true}
	csDone := make(chan error, 1)
	go func() { csDone <- m.Acquire(cs, b, req) }()
	if err := <-fwDone; !errors.Is(err, ErrAborted) {
		t.Fatalf("forward waiter got %v, want ErrAborted", err)
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
	holder, writer := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	it := item("x")
	if err := m.Acquire(holder, it, Request{Mode: ModeA, Step: 1, Assertion: 42}); err != nil {
		t.Fatal(err)
	}
	// A non-interfering writer passes.
	ok := NewTxnInfo(3, 1)
	if err := m.Acquire(ok, it, Request{Mode: ModeX, Step: 9}); err != nil {
		t.Fatalf("non-interfering writer blocked: %v", err)
	}
	m.ReleaseAll(ok)
	// The interfering writer waits until the assertion is released.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(writer, it, Request{Mode: ModeX, Step: 7}) }()
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
	t1, t2, t3 := NewTxnInfo(1, 1), NewTxnInfo(2, 1), NewTxnInfo(3, 1)
	it := item("x")
	if err := m.Acquire(t1, it, Request{Mode: ModeA, Step: 1, Assertion: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, it, Request{Mode: ModeA, Step: 1, Assertion: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t3, it, Request{Mode: ModeS, Step: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestExposureIsolatesUndeclaredSteps(t *testing.T) {
	o := newStub()
	o.setInterleave(5, 1, true) // step 5 may see txn type 1's state
	m := NewManager(o)
	holder := NewTxnInfo(1, 1) // txn type 1
	it := item("x")
	m.AttachExposure(holder, it)
	// Declared step passes.
	friend := NewTxnInfo(2, 2)
	if err := m.Acquire(friend, it, Request{Mode: ModeS, Step: 5}); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(friend)
	// A legacy step blocks until the holder commits.
	legacy := NewTxnInfo(3, interference.LegacyTxn)
	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(legacy, it, Request{Mode: ModeS, Step: interference.LegacyStep})
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
	holder := NewTxnInfo(1, 1)
	it := PartitionItem("t", "p")
	m.AttachExposure(holder, it)
	other := NewTxnInfo(2, 2)
	if err := m.Acquire(other, it, Request{Mode: ModeIX, Step: 9}); err != nil {
		t.Fatal("IX should pass exposure (checked at finer granule)")
	}
}

func TestExposureBreakpointSensitivity(t *testing.T) {
	o := newStub()
	m := NewManager(o)
	holder := NewTxnInfo(1, 1)
	it := item("x")
	m.AttachExposure(holder, it)
	reader := NewTxnInfo(2, 2)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(reader, it, Request{Mode: ModeS, Step: 5}) }()
	select {
	case <-done:
		t.Fatal("reader passed disallowed breakpoint")
	case <-time.After(30 * time.Millisecond):
	}
	// Allow interleaving (as if the next breakpoint's table entry differed),
	// advance the holder, and release a step: the waiter must be re-examined.
	o.setInterleave(5, 1, true)
	holder.AdvanceStep()
	m.Retire(holder, 0, 0, false) // triggers the grant pass at step boundary
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReservationBlocksInterferingAssertion(t *testing.T) {
	o := newStub()
	o.setInterferes(99, 7, true) // CS type 99 interferes with assertion 7
	m := NewManager(o)
	owner := NewTxnInfo(1, 1)
	it := item("x")
	m.AttachReservation(owner, it, 99)
	// Interfering assertional request blocks.
	other := NewTxnInfo(2, 2)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(other, it, Request{Mode: ModeA, Step: 3, Assertion: 7}) }()
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
	m.AttachReservation(owner, it, 99)
	third := NewTxnInfo(3, 2)
	if err := m.Acquire(third, it, Request{Mode: ModeA, Step: 3, Assertion: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestAssertionVsExposurePrefixCheck(t *testing.T) {
	o := newStub()
	o.setPrefixSafe(1, 7, true) // txn type 1's prefixes leave assertion 7 true
	m := NewManager(o)
	holder := NewTxnInfo(1, 1)
	it := item("x")
	m.AttachExposure(holder, it)
	// Safe-prefix assertion is granted over the exposure.
	safe := NewTxnInfo(2, 2)
	if err := m.Acquire(safe, it, Request{Mode: ModeA, Step: 3, Assertion: 7}); err != nil {
		t.Fatal(err)
	}
	// Unknown assertion conservatively blocks.
	unsafe := NewTxnInfo(3, 2)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(unsafe, it, Request{Mode: ModeA, Step: 3, Assertion: 8}) }()
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
	txn := NewTxnInfo(1, 1)
	it := item("x")
	m.Acquire(txn, it, Request{Mode: ModeA, Step: 1, Assertion: 7})
	m.Acquire(txn, it, conv(ModeX))
	txn.SetCompletedSteps(2)
	m.AttachExposure(txn, it) // stepSeq = 2 (current step)
	m.ReleaseStepAbort(txn)
	// Conventional and this step's exposure gone; assertional retained.
	if m.HoldsConventional(1, it, ModeS) {
		t.Fatal("conventional lock survived step abort")
	}
	items := m.HeldItems(1)
	if len(items) != 1 {
		t.Fatalf("held items after abort: %v", items)
	}
	// Exposure from an earlier step survives a later step's abort.
	txn2 := NewTxnInfo(2, 1)
	m.AttachExposure(txn2, it) // at step 0
	txn2.SetCompletedSteps(3)
	m.ReleaseStepAbort(txn2)
	legacy := NewTxnInfo(9, interference.LegacyTxn)
	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(legacy, it, Request{Mode: ModeX, Step: interference.LegacyStep})
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
func cancelWait(txn *TxnInfo) {
	if w := blockedOf(txn); w != nil {
		w.kill(ErrAborted)
	}
}

func TestCancelWait(t *testing.T) {
	m := NewManager(newStub())
	t1, t2 := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	it := item("x")
	m.Acquire(t1, it, conv(ModeX))
	done := make(chan error, 1)
	go func() { done <- m.Acquire(t2, it, conv(ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	cancelWait(t2)
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
}

func TestWaitTimeout(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 30 * time.Millisecond
	t1, t2 := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	it := item("x")
	m.Acquire(t1, it, conv(ModeX))
	start := time.Now()
	err := m.Acquire(t2, it, conv(ModeX))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout took too long")
	}
	// After the timeout the queue must be clean: release and retry works.
	m.ReleaseAll(t1)
	if err := m.Acquire(t2, it, conv(ModeX)); err != nil {
		t.Fatal(err)
	}
}

func TestVictimRemovalUnblocksLaterWaiters(t *testing.T) {
	// A waiter queued behind a deadlock victim must be re-examined when the
	// victim is removed (the lost-wakeup regression).
	m := NewManager(newStub())
	t1, t2, t3 := NewTxnInfo(1, 1), NewTxnInfo(2, 1), NewTxnInfo(3, 1)
	a, b := item("a"), item("b")
	m.Acquire(t1, a, conv(ModeX))
	m.Acquire(t2, b, conv(ModeX))
	done1 := make(chan error, 1)
	go func() { done1 <- m.Acquire(t1, b, conv(ModeX)) }() // t1 waits for t2
	time.Sleep(20 * time.Millisecond)
	done3 := make(chan error, 1)
	go func() { done3 <- m.Acquire(t3, b, conv(ModeS)) }() // t3 queues behind t1
	time.Sleep(20 * time.Millisecond)
	// t2 closes the cycle: victim. t1 still waits; t3 still waits.
	if err := m.Acquire(t2, a, conv(ModeX)); !errors.Is(err, ErrDeadlock) {
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
	items := []Item{item("a"), item("b"), item("c"), item("d")}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				txn := NewTxnInfo(TxnID(g*1000+i+1), 1)
				for j, it := range items {
					mode := ModeS
					if (g+i+j)%3 == 0 {
						mode = ModeX
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
	probe := NewTxnInfo(999999, 1)
	for _, it := range items {
		if err := m.Acquire(probe, it, conv(ModeX)); err != nil {
			t.Fatalf("leaked lock on %v: %v", it, err)
		}
	}
}
