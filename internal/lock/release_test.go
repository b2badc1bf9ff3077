package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
)

// checkInvariants verifies the lock table's bookkeeping. Every invariant is
// local to one shard, so it checks shard by shard under that shard's latch
// and may run beside live traffic. With idle set, nothing may be held, and
// every recycled txnLocks on the manager's freelist must be empty.
func checkInvariants(m *Manager, idle bool) error {
	for _, sh := range m.shards {
		if err := sh.checkInvariants(idle); err != nil {
			return fmt.Errorf("shard %d: %w", sh.idx, err)
		}
	}
	if !idle {
		return nil
	}
	m.locksMu.Lock()
	defer m.locksMu.Unlock()
	for _, tl := range m.locksPool {
		for i, hs := range tl.sets {
			if len(hs.locks)+len(hs.marks)+len(hs.contested) != 0 {
				return fmt.Errorf("pooled held sets keep entries in shard %d", i)
			}
		}
	}
	return nil
}

// checkInvariants: every state is linked exactly once, in the bucket of its
// item's hash, and none is linked empty — with idle set, none is linked at
// all; a pooled state names no item and holds nothing; every grant sits at
// the index it records in its state's grant list; every D/C mark on a state
// with waiters is flagged contested; every grant of a linked state appears
// exactly once in its holder's held set for this shard (Txn.Locks), in the
// slice its kind belongs to, and those sets list nothing else; a holder's
// contested list holds exactly its flagged marks, once each; every waiter
// points at the state it is queued on; a state's retired count is its number
// of retired grants. It never reads txnLocks.mask, which other shards'
// release passes write under their own latches.
func (sh *shard) checkInvariants(idle bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	linked := make(map[*lockState]bool)
	for b := range sh.buckets {
		for st := sh.buckets[b]; st != nil; st = st.next {
			switch {
			case linked[st]:
				return fmt.Errorf("state of %v linked twice", st.item)
			case st.hash != itemHash(st.item) || bucketOf(st.hash) != uint64(b):
				return fmt.Errorf("state of %v linked in bucket %d, its hash names %d", st.item, b, bucketOf(itemHash(st.item)))
			case len(st.grants) == 0 && len(st.queue) == 0:
				return fmt.Errorf("empty state of %v left linked", st.item)
			case idle:
				return fmt.Errorf("state of %v linked with nothing running", st.item)
			}
			linked[st] = true
		}
	}
	for _, st := range sh.statePool {
		stale := slices.ContainsFunc(st.queue[:cap(st.queue)], func(w *waiter) bool { return w != nil })
		if st.item != (spi.Item{}) || stale || len(st.grants)+len(st.queue) != 0 || st.next != nil || linked[st] {
			return fmt.Errorf("pooled state still names %v, a dequeued waiter or entries", st.item)
		}
	}
	holders := make(map[*spi.Txn]*heldSet)
	grants := 0
	for st := range linked {
		item := st.item
		retired := 0
		for i, g := range st.grants {
			switch {
			case g.st != st:
				return fmt.Errorf("grant of T%d on %v points at another state", g.txn.ID, item)
			case g.idx != i:
				return fmt.Errorf("grant of T%d on %v sits at %d, records %d", g.txn.ID, item, i, g.idx)
			case g.kind == kindExposure && len(st.queue) > 0 && !g.contested:
				return fmt.Errorf("mark of T%d on %v has waiters but is not contested", g.txn.ID, item)
			}
			if g.kind == kindRetired {
				retired++
			}
			holders[g.txn] = sh.heldOf(g.txn)
		}
		if retired != st.retired {
			return fmt.Errorf("%v: retired = %d, counted %d", item, st.retired, retired)
		}
		for _, w := range st.queue {
			if w.st != st {
				return fmt.Errorf("waiter of T%d on %v points at another state", w.txn.ID, item)
			}
		}
		grants += len(st.grants)
	}
	listed := make(map[*grant]bool)
	for txn, hs := range holders {
		id := txn.ID
		for i, g := range slices.Concat(hs.locks, hs.marks) {
			isLock := g.kind == kindConventional || g.kind == kindRetired
			switch {
			case isLock != (i < len(hs.locks)):
				return fmt.Errorf("T%d: grant of kind %d in the wrong held slice", id, g.kind)
			case g.txn != txn:
				return fmt.Errorf("T%d lists a grant it does not hold", id)
			case listed[g]:
				return fmt.Errorf("T%d lists a grant twice on %v", id, g.st.item)
			case !linked[g.st] || g.idx >= len(g.st.grants) || g.st.grants[g.idx] != g:
				return fmt.Errorf("T%d: listed grant is not in a linked state's grant list", id)
			}
			listed[g] = true
		}
		contested := make(map[*grant]bool)
		for _, g := range hs.contested {
			switch {
			case g.txn != txn || g.kind != kindExposure || !g.contested || !listed[g]:
				return fmt.Errorf("T%d: contested entry is not a flagged mark it holds", id)
			case contested[g]:
				return fmt.Errorf("T%d: mark on %v contested twice", id, g.st.item)
			}
			contested[g] = true
		}
		for _, g := range hs.marks {
			if g.contested && !contested[g] {
				return fmt.Errorf("T%d: flagged mark on %v missing from its contested list", id, g.st.item)
			}
		}
	}
	if grants != len(listed) {
		return fmt.Errorf("%d grants in states, %d listed in held sets", grants, len(listed))
	}
	return nil
}

// TestReleasePassesKeepTableConsistent drives every release path from many
// goroutines across shards — acquires with conversions and waits, marks with
// and without a reservation, non-final and final Retire at durable and non-durable log
// positions (with folds), ReleaseAssertion, ReleaseStepAbort and ReleaseAll
// — while a checker verifies the table's bookkeeping; at the end nothing is
// held. A wait that times out is a lost wakeup.
func TestReleasePassesKeepTableConsistent(t *testing.T) {
	const (
		workers = 16
		txns    = 60
		seed    = 27
	)
	o := newStub()
	o.setInterferes(2, 1, true) // step type 2 interferes with assertion 1
	o.setInterferes(9, 2, true) // compensation type 9 with assertion 2
	o.setInterleave(1, 1, true) // step type 1 may see type-1 exposures
	m := NewManager(o)
	m.WaitTimeout = 10 * time.Second
	tbl := spi.TableItem("t")
	rows := make([]spi.Item, 48)
	for i := range rows {
		rows[i] = spi.RowItem("t", spi.Key(fmt.Sprintf("row-%d", i)))
	}
	var lsns, durable atomic.Uint64
	retire := func(txn *spi.Txn, rng *rand.Rand, final bool) {
		lsn := lsns.Add(1)
		if rng.Intn(3) == 0 {
			for d := durable.Load(); d < lsn && !durable.CompareAndSwap(d, lsn); d = durable.Load() {
			}
		}
		m.Retire(txn, lsn, durable.Load(), final)
	}
	// run executes one transaction; false means a lock request failed and
	// the transaction was released whole.
	run := func(txn *spi.Txn, rng *rand.Rand) bool {
		window := rng.Intn(len(rows) - 4) // a few rows, so later steps refold
		for step, steps := 0, 1+rng.Intn(4); step < steps; step++ {
			st := interference.StepTypeID(1 + rng.Intn(2))
			if err := m.Acquire(txn, tbl, spi.LockRequest{Mode: spi.ModeIX, Step: st}); err != nil {
				return false
			}
			for k := 0; k < 3; k++ {
				row := rows[window+rng.Intn(4)]
				var err error
				switch rng.Intn(4) {
				case 0:
					err = m.Acquire(txn, row, spi.LockRequest{Mode: spi.ModeS, Step: st})
				case 1: // S then X: a conversion
					if err = m.Acquire(txn, row, spi.LockRequest{Mode: spi.ModeS, Step: st}); err == nil {
						err = m.Acquire(txn, row, spi.LockRequest{Mode: spi.ModeX, Step: st})
					}
				case 2:
					err = m.Acquire(txn, row, spi.LockRequest{Mode: spi.ModeA, Step: st, Assertion: interference.AssertionID(1 + rng.Intn(2))})
				default:
					if err = m.Acquire(txn, row, spi.LockRequest{Mode: spi.ModeX, Step: st}); err == nil {
						m.AttachExposure(txn, row)
					}
				}
				if errors.Is(err, spi.ErrTimeout) {
					t.Errorf("T%d timed out on %v: a waiter was never re-examined", txn.ID, row)
				}
				if err != nil {
					return false
				}
			}
			switch rng.Intn(8) {
			case 0: // the step failed: its locks and marks go, assertions stay
				m.ReleaseStepAbort(txn)
			case 1: // abort the transaction
				return false
			default:
				txn.AdvanceStep()
				if rng.Intn(2) == 0 {
					m.ReleaseAssertion(txn, interference.AssertionID(1+rng.Intn(2)))
				}
				retire(txn, rng, step == steps-1)
			}
		}
		return true
	}

	done := make(chan struct{})
	checked := make(chan error, 1)
	go func() {
		defer close(checked)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := checkInvariants(m, false); err != nil {
				checked <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var committed atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < txns; i++ {
				txn := spi.NewTxn(spi.TxnID(g*1000+i+1), interference.TxnTypeID(1+rng.Intn(2)))
				// Compensation type 9, 10, or none: marks with and without a
				// reservation.
				txn.Comp = []interference.StepTypeID{9, 10, spi.NoStep}[rng.Intn(3)]
				if run(txn, rng) {
					committed.Add(1)
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if err := <-checked; err != nil {
		t.Fatalf("during the run: %v", err)
	}
	if err := checkInvariants(m, true); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	t.Logf("committed %d of %d, %+v", committed.Load(), workers*txns, m.Stats())
	if committed.Load() == 0 {
		t.Fatal("no transaction committed: the soak exercised only aborts")
	}
}

// stepOver returns one step of a transaction that writes a row: IX on the
// table, X on the row, the row's D/C mark, a non-final Retire — or, final, a
// commit: the same plus the final Retire and ReleaseAll.
func stepOver(t *testing.T, m *Manager, txn *spi.Txn) func(row spi.Item, final bool) {
	tbl := spi.TableItem("t")
	var lsn uint64
	return func(row spi.Item, final bool) {
		if err := m.Acquire(txn, tbl, conv(spi.ModeIX)); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(txn, row, conv(spi.ModeX)); err != nil {
			t.Fatal(err)
		}
		m.AttachExposure(txn, row)
		txn.AdvanceStep()
		lsn++
		m.Retire(txn, lsn, lsn/2, final)
		if final {
			m.ReleaseAll(txn)
		}
	}
}

// TestStepBoundaryAllocFree: in steady state a step and a commit on the same
// row allocate nothing.
func TestStepBoundaryAllocFree(t *testing.T) {
	m := NewManager(newStub())
	txn := spi.NewTxn(1, 1)
	txn.Comp = 9
	step, row := stepOver(t, m, txn), spi.RowItem("t", "k")
	if n := testing.AllocsPerRun(100, func() { step(row, false) }); n != 0 {
		t.Errorf("step boundary: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { step(row, true) }); n != 0 {
		t.Errorf("final Retire + ReleaseAll: %.1f allocs/op, want 0", n)
	}
	if err := checkInvariants(m, true); err != nil {
		t.Fatal(err)
	}
}

// TestFreshItemsAllocFree: TPC-C's pattern — every step and commit on a row
// nobody holds, so each acquire links a fresh state and each release unlinks
// one — allocates nothing either, and leaves no state linked and no pooled
// state naming an item.
func TestFreshItemsAllocFree(t *testing.T) {
	m := NewManager(newStub())
	txn := spi.NewTxn(1, 1)
	txn.Comp = 9
	step := stepOver(t, m, txn)
	rows := make([]spi.Item, 10000)
	for i := range rows {
		rows[i] = spi.RowItem("t", spi.Key(fmt.Sprintf("row-%05d", i)))
	}
	i := 0
	next := func() spi.Item { i++; return rows[i%len(rows)] }
	if n := testing.AllocsPerRun(len(rows), func() { step(next(), false); step(next(), true) }); n != 0 {
		t.Errorf("step and commit over fresh rows: %.1f allocs/op, want 0", n)
	}
	if err := checkInvariants(m, true); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedStatesNameNoItem: after ReleaseAll no linked or pooled state
// keeps its last item's key alive (checkInvariants), with the freelist full.
func TestReleasedStatesNameNoItem(t *testing.T) {
	m := NewManagerWithShards(newStub(), 1)
	txn := spi.NewTxn(1, 1)
	for i := 0; i < 2*freelistCap; i++ {
		row := spi.RowItem("t", spi.Key(fmt.Sprintf("row-%d", i)))
		if err := m.Acquire(txn, row, conv(spi.ModeX)); err != nil {
			t.Fatal(err)
		}
		m.AttachExposure(txn, row)
	}
	m.ReleaseAll(txn)
	if n := len(m.shards[0].statePool); n != freelistCap {
		t.Fatalf("%d pooled states, want a full freelist of %d", n, freelistCap)
	}
	if err := checkInvariants(m, true); err != nil {
		t.Fatal(err)
	}
}
