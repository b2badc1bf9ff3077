package lock

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
	"accdb/internal/trace"
)

func init() {
	spi.RegisterLockService(func(o spi.Oracle) spi.LockService { return NewManager(o) })
}

// Mode tags for the paper's non-conventional entry kinds, as they appear in
// span events and snapshots: A = assertional lock, D =
// displayed (exposed) intermediate state mark, C = compensation reservation.
const (
	tagExposure    = "D"
	tagReservation = "C"
)

type grantKind uint8

const (
	kindConventional grantKind = iota + 1
	kindAssertional
	// kindExposure is a written item's mark: its D mark (exposure, §3.3)
	// and, when the holder's type has a compensating step (spi.Txn.Comp),
	// also its C reservation for that step (§3.4). The two always go on the
	// same items at the same boundary and fall together, so they are one
	// grant; everything observable still tells them apart.
	kindExposure
	// kindRetired is a conventional write-mode grant its holder gave up
	// before the log record of the step that held it was durable (Retire).
	// refuses has no case for it, so it blocks nobody and makes no
	// waits-for edge; noteRetired is where it still counts.
	kindRetired
)

// clause names what in a lock-table entry makes a request wait: its
// conventional mode, its assertion (A), or a mark's D or C half. It picks
// the lock-wait span stage the wait is charged to.
type clause uint8

const (
	clauseNone clause = iota
	clauseConv
	clauseA
	clauseD
	clauseC
)

var clauseStages = [...]trace.SpanStage{
	clauseConv: trace.StageLockConv,
	clauseA:    trace.StageLockA,
	clauseD:    trace.StageLockD,
	clauseC:    trace.StageLockC,
}

// tag names the refusing entry e in span events: the mode of a
// conventional lock, else the clause's mode tag.
func (c clause) tag(e *grant) string {
	switch c {
	case clauseA:
		return "A"
	case clauseD:
		return tagExposure
	case clauseC:
		return tagReservation
	}
	return e.mode.String()
}

// grant is one held entry on an item. A transaction may hold several entries
// of different kinds on the same item (e.g. a conventional X, an assertional
// lock, and an exposure mark).
type grant struct {
	txn  *spi.Txn
	st   *lockState // the item's state; the grant is st.grants[idx]
	idx  int
	kind grantKind
	// contested flags a D/C mark listed in its holder's heldSet.contested.
	contested bool

	mode      spi.Mode                 // conventional, retired
	lsn       uint64                   // retired: log position of the holder's step record
	step      interference.StepTypeID  // conventional, assertional: acquiring step type
	assertion interference.AssertionID // assertional

	// stepSeq is the holder's CompletedSteps value when the entry was
	// attached; step aborts remove entries attached during the failed step.
	stepSeq int
}

// waiter is a blocked Acquire. Its granted/err fields are guarded by the
// owning shard's latch (sh.mu); the grantor (grant pass, victim kill) sets
// exactly one outcome and signals ch exactly once, all under that latch.
type waiter struct {
	txn  *spi.Txn
	req  spi.LockRequest
	item spi.Item
	st   *lockState // item's state, never reaped while w is queued
	m    *Manager   // owns sh; a deadlock walk may reach w from another manager
	sh   *shard
	conv bool // conversion request (queued ahead of plain requests)
	// would is the grant the request would install, what requests queued
	// behind it are checked against.
	would grant

	// stage and blockedBy classify the wait for latency-anatomy spans: the
	// per-mode lock-wait stage and the mode tag of the entry that blocked
	// the request, both fixed at block time under the shard latch.
	stage     trace.SpanStage
	blockedBy string

	granted bool
	err     error
	ch      chan struct{}
}

type lockState struct {
	item spi.Item
	hash uint64     // itemHash(item)
	next *lockState // the bucket's chain
	// Outside its shard latch a linked state has a grant or a waiter. The
	// order of grants means nothing — unlink moves the last grant into the
	// slot it frees — and FIFO order lives in queue.
	grants []*grant
	queue  []*waiter
	// retired counts the kindRetired entries in grants, so a grant on an item
	// nobody retired a lock on pays nothing for noteRetired or Retire's fold.
	retired int
	// pass is the last release pass that scheduled this state's grant pass
	// (shard.touch).
	pass uint64
}

// Manager is the lock manager. The lock table is partitioned into shards —
// the structure of the sharded Ingres lock manager the paper modified —
// each with its own latch, lock chains and wait queues, so Acquires on
// unrelated items proceed in parallel. Wait queues park on per-waiter
// channels; a blocked request is published in its transaction's group's
// Blocked slot, where deadlock detection finds it.
type Manager struct {
	oracle spi.Oracle

	// WaitTimeout bounds each blocking Acquire; zero means wait forever.
	// It is a safety net for tests and drivers, not a scheduling policy.
	WaitTimeout time.Duration

	shards    []*shard
	shardMask uint64

	// locksMu guards locksPool, the recycled held sets of transactions that
	// hold nothing any more (txnLocks).
	locksMu   sync.Mutex
	locksPool []*txnLocks
}

// NewManager creates a lock manager with the default shard count,
// max(16, 4×GOMAXPROCS) capped at 64, using the given interference oracle.
func NewManager(oracle spi.Oracle) *Manager {
	return NewManagerWithShards(oracle, defaultShardCount())
}

// NewManagerWithShards creates a lock manager with an explicit shard count
// (rounded up to a power of two, capped at 64). n = 1 degenerates to the
// single-latch manager, which the shard benchmarks use as their baseline.
func NewManagerWithShards(oracle spi.Oracle, n int) *Manager {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	n = ceilPow2(n)
	m := &Manager{
		oracle:    oracle,
		shards:    make([]*shard, n),
		shardMask: uint64(n - 1),
	}
	for i := range m.shards {
		m.shards[i] = newShard(i)
	}
	return m
}

// ShardCount reports the number of lock-table partitions.
func (m *Manager) ShardCount() int { return len(m.shards) }

// SetWaitTimeout bounds each blocking Acquire; zero waits forever. Call
// before the manager serves requests.
func (m *Manager) SetWaitTimeout(d time.Duration) { m.WaitTimeout = d }

// refuses is the lock table's one question (§3.2–3.4): which clause of the
// entry e, if any, makes request (txn, req) wait. e is a grant or a queued
// waiter's would-be grant. A transaction's own entries never refuse it, and
// a retired grant refuses nobody.
func (m *Manager) refuses(txn *spi.Txn, req spi.LockRequest, e *grant) clause {
	if e.txn.ID == txn.ID {
		return clauseNone
	}
	switch e.kind {
	case kindConventional:
		if req.Mode != spi.ModeA {
			if !conventionalCompat(req.Mode, e.mode) {
				return clauseConv
			}
		} else if (e.mode == spi.ModeX || e.mode == spi.ModeSIX) && m.oracle.Interferes(e.step, req.Assertion) {
			// A writer holds the item; its in-flight step may invalidate
			// the assertion.
			return clauseConv
		}
	case kindAssertional:
		// Only writers can invalidate an assertion, and of those only the
		// explicit writer modes: IX touches no data at this granule.
		if (req.Mode == spi.ModeX || req.Mode == spi.ModeSIX) && m.oracle.Interferes(req.Step, e.assertion) {
			return clauseA
		}
	case kindExposure:
		switch req.Mode {
		case spi.ModeIS, spi.ModeIX:
			// Intention modes pass: the real access is checked at the finer
			// granule.
		case spi.ModeA:
			// D: the holder exposed an intermediate value of the item, so
			// the assertion may be locked only if the holder's executed
			// prefix provably leaves it true (§3.3, "Request
			// A(pre(S_{i,1})) locks"). C: the holder's compensating step
			// may later modify the item and must not be delayed by this
			// assertional lock (§3.4).
			if m.oracle.PrefixInterferes(e.txn.Type, e.txn.CompletedSteps(), req.Assertion) {
				return clauseD
			}
			if e.txn.Comp != spi.NoStep && m.oracle.Interferes(e.txn.Comp, req.Assertion) {
				return clauseC
			}
		default:
			// Readers and writers alike must be declared interleavable at
			// the holder's current breakpoint to observe its intermediate
			// state.
			if !m.oracle.MayInterleave(req.Step, e.txn.Type, e.txn.CompletedSteps()) {
				return clauseD
			}
		}
	}
	return clauseNone
}

// blocker is the one scan behind every grant decision: the first entry that
// refuses (txn, req) among st's grants and then the would-be grants of the
// waiters ahead of it — the whole queue for a new request, none for a
// conversion, queue[:i] for the waiter at index i — and the clause that
// refuses, or clauseNone. Caller holds the item's shard latch.
func (m *Manager) blocker(txn *spi.Txn, req spi.LockRequest, st *lockState, ahead []*waiter) (clause, *grant) {
	for _, g := range st.grants {
		if c := m.refuses(txn, req, g); c != clauseNone {
			return c, g
		}
	}
	for _, w := range ahead {
		if c := m.refuses(txn, req, &w.would); c != clauseNone {
			return c, &w.would
		}
	}
	return clauseNone, nil
}

// entry returns txn's grant of the given kind on the state — for an A
// entry, the one for assertion a — or nil. Caller holds the shard latch.
func (st *lockState) entry(txn spi.TxnID, kind grantKind, a interference.AssertionID) *grant {
	if kind == kindRetired && st.retired == 0 {
		return nil
	}
	for _, g := range st.grants {
		if g.kind == kind && g.txn.ID == txn && (kind != kindAssertional || g.assertion == a) {
			return g
		}
	}
	return nil
}

// unlink removes g from the state's grant list in O(1): the last grant
// moves into g's slot.
func (st *lockState) unlink(g *grant) {
	last := len(st.grants) - 1
	moved := st.grants[last]
	st.grants[g.idx], moved.idx = moved, g.idx
	st.grants[last] = nil
	st.grants = st.grants[:last]
	if g.kind == kindRetired {
		st.retired--
	}
}

// attach hangs held sets on txn unless it has them, recycled if the
// freelist has some. It runs on the transaction's own goroutine before any
// latch, so a grantor acting for its parked waiter only indexes them.
func (m *Manager) attach(txn *spi.Txn) {
	if txn.Locks != nil {
		return
	}
	var tl *txnLocks
	m.locksMu.Lock()
	if n := len(m.locksPool); n > 0 {
		tl = m.locksPool[n-1]
		m.locksPool = m.locksPool[:n-1]
	}
	m.locksMu.Unlock()
	if tl == nil {
		tl = &txnLocks{sets: make([]heldSet, len(m.shards))}
	}
	txn.Locks = tl
}

// detach takes the held sets off a transaction that holds nothing and
// recycles them.
func (m *Manager) detach(txn *spi.Txn, tl *txnLocks) {
	txn.Locks = nil
	m.locksMu.Lock()
	if len(m.locksPool) < freelistCap {
		m.locksPool = append(m.locksPool, tl)
	}
	m.locksMu.Unlock()
}

// Acquire obtains the requested lock on item for txn, blocking until it is
// granted, the request is chosen as a deadlock victim, the wait is cancelled,
// or the wait budget expires.
func (m *Manager) Acquire(txn *spi.Txn, item spi.Item, req spi.LockRequest) error {
	return m.AcquireCtx(context.Background(), txn, item, req)
}

// AcquireCtx is Acquire under a caller context: a cancelled or expired ctx
// aborts a blocked wait and returns ctx's error, so a disconnected client
// (or an expired deadline) stops waiting immediately and the engine can
// roll the transaction back by compensation. The fast path — the lock is
// granted without waiting — never consults ctx.
func (m *Manager) AcquireCtx(ctx context.Context, txn *spi.Txn, item spi.Item, req spi.LockRequest) error {
	m.attach(txn)
	sh, h := m.shardOf(item)
	sh.stats.acquisitions.Add(1)
	sh.mu.Lock()
	st := sh.state(item, h)

	// Reentrant and conversion handling for conventional modes.
	if req.Mode != spi.ModeA {
		if g := st.entry(txn.ID, kindConventional, 0); g != nil {
			want := sup(g.mode, req.Mode)
			if want == g.mode {
				sh.mu.Unlock()
				return nil // already covered
			}
			// Conversion: granted immediately iff the target mode is
			// compatible with every other holder; otherwise the conversion
			// waits at the head of the queue (ahead of plain requests).
			conv := req
			conv.Mode = want
			c, by := m.blocker(txn, conv, st, nil)
			if c == clauseNone {
				g.mode = want
				g.step = req.Step
				noteRetired(txn, want, st)
				sh.mu.Unlock()
				return nil
			}
			return m.wait(ctx, txn, item, sh, st, conv, true, c, by)
		}
	} else if st.entry(txn.ID, kindAssertional, req.Assertion) != nil {
		sh.mu.Unlock()
		return nil
	}

	c, by := m.blocker(txn, req, st, st.queue)
	if c == clauseNone {
		m.install(txn, sh, st, req)
		sh.mu.Unlock()
		return nil
	}
	return m.wait(ctx, txn, item, sh, st, req, false, c, by)
}

// noteRetired records in txn the retired grants a conventional grant of the
// given mode would have conflicted with: the holder's record may not be
// durable yet, and txn is about to see (or overwrite) what it wrote. Caller
// holds the item's shard latch.
func noteRetired(txn *spi.Txn, mode spi.Mode, st *lockState) {
	if st.retired == 0 {
		return
	}
	for _, g := range st.grants {
		if g.kind == kindRetired && g.txn.ID != txn.ID && !conventionalCompat(mode, g.mode) {
			txn.NoteDep(g.lsn)
		}
	}
}

// install adds the grant entry for a now-compatible request; a conversion
// only raises the held grant's mode. Caller holds the item's shard latch.
func (m *Manager) install(txn *spi.Txn, sh *shard, st *lockState, req spi.LockRequest) {
	if req.Mode == spi.ModeA {
		sh.newGrant(txn, st, kindAssertional).assertion = req.Assertion
		return
	}
	g := st.entry(txn.ID, kindConventional, 0)
	if g == nil {
		g = sh.newGrant(txn, st, kindConventional)
		g.mode = req.Mode
	}
	g.mode = sup(g.mode, req.Mode)
	g.step = req.Step
	noteRetired(txn, g.mode, st)
}

// spanWait charges a finished wait to the waiter's lock stage and appends
// its outcome to the span's bounded event history. It runs on the waiting
// goroutine — the only reader and writer of the span — after the outcome is
// finalized.
func spanWait(w *waiter, waited time.Duration, granted bool, err error) {
	sp := w.txn.Span
	if sp == nil {
		return
	}
	kind := trace.KindLockGrant
	switch {
	case err == spi.ErrTimeout:
		kind = trace.KindLockTimeout
	case err == spi.ErrDeadlock:
		kind = trace.KindDeadlockVictim
	case err != nil || !granted:
		kind = trace.KindLockAbort
	}
	sp.Add(w.stage, int64(waited))
	sp.Event(kind, w.blockedBy, w.item.String(), int64(waited))
}

// wait enqueues the request, which clause c of entry by refused, publishes
// it in its group's Blocked slot, runs deadlock detection, and parks until
// the grant, a victim kill, the wait budget, or ctx. Called with sh.mu held;
// releases it.
func (m *Manager) wait(ctx context.Context, txn *spi.Txn, item spi.Item, sh *shard, st *lockState, req spi.LockRequest, conversion bool, c clause, by *grant) error {
	w := &waiter{txn: txn, req: req, item: item, st: st, m: m, sh: sh, conv: conversion,
		stage: clauseStages[c], blockedBy: c.tag(by), ch: make(chan struct{}, 1)}
	w.would = grant{txn: txn, kind: kindConventional, mode: req.Mode, step: req.Step}
	if req.Mode == spi.ModeA {
		w.would.kind, w.would.assertion = kindAssertional, req.Assertion
	}
	if conversion {
		// Conversions go ahead of plain requests (behind other conversions)
		// to avoid the classic convoy behind a full queue.
		i := 0
		for i < len(st.queue) && st.queue[i].conv {
			i++
		}
		st.queue = append(st.queue, nil)
		copy(st.queue[i+1:], st.queue[i:])
		st.queue[i] = w
	} else {
		st.queue = append(st.queue, w)
	}
	// The holders' marks here now have a waiter whose exposure conflict may
	// change at their next boundary.
	for _, g := range st.grants {
		sh.contest(g)
	}
	sh.stats.waits.Add(1)
	sh.mu.Unlock()

	// Publish before detecting: the last member of a cycle to publish is
	// guaranteed to see every other member when its own detection runs.
	txn.Group.Blocked.Store(w)
	start := time.Now()
	resolveDeadlock(w) // a victim w wakes at once, below

	var timeout <-chan time.Time
	if m.WaitTimeout > 0 {
		t := time.NewTimer(m.WaitTimeout)
		defer t.Stop()
		timeout = t.C
	}
	// Whoever ends the wait — the grant pass, a victim kill, or one of the two
	// kills below — signals w.ch exactly once.
	select {
	case <-w.ch:
	case <-timeout:
		w.kill(spi.ErrTimeout)
		<-w.ch
	case <-ctx.Done():
		// The caller gave up: a disconnected session or an expired deadline.
		// The wait is withdrawn and the ctx error propagates so the engine
		// rolls the transaction back (by compensation if steps completed).
		w.kill(ctx.Err())
		<-w.ch
	}
	return m.finishWait(w, start)
}

// finishWait withdraws a signalled waiter from its Blocked slot, records the
// wait against the shard's counters and contention class — abandoned waits
// count toward contention attribution like any other — and maps the waiter's
// outcome to the Acquire result.
func (m *Manager) finishWait(w *waiter, start time.Time) error {
	w.txn.Group.Blocked.Store((*waiter)(nil))
	sh := w.sh
	sh.mu.Lock()
	granted, err := w.granted, w.err
	sh.mu.Unlock()
	waited := time.Since(start)
	sh.recordWait(w.item, w.req, uint64(waited))
	spanWait(w, waited, granted, err)
	if err != nil {
		return err
	}
	if !granted {
		return spi.ErrAborted
	}
	return nil
}

// removeWaiter unlinks w from its queue and re-examines the queue: waiters
// ordered behind w may have been blocked only by it. Caller holds sh.mu.
func (m *Manager) removeWaiter(sh *shard, w *waiter) {
	st := w.st
	for i, q := range st.queue {
		if q == w {
			st.queue = slices.Delete(st.queue, i, i+1)
			break
		}
	}
	m.grantPass(sh, st)
}

// grantPass re-examines an item's queue after its state changed, granting
// every waiter that is now compatible with the grants and with all waiters
// still ahead of it. Caller holds sh.mu.
func (m *Manager) grantPass(sh *shard, st *lockState) {
	for i := 0; i < len(st.queue); {
		w := st.queue[i]
		if c, _ := m.blocker(w.txn, w.req, st, st.queue[:i]); c != clauseNone {
			i++
			continue
		}
		st.queue = slices.Delete(st.queue, i, i+1)
		m.install(w.txn, sh, st, w.req)
		w.granted = true
		w.ch <- struct{}{}
		// Restart: installing may enable or disable later waiters.
		i = 0
	}
	if len(st.grants) == 0 && len(st.queue) == 0 {
		sh.reapState(st)
	}
}

// AttachExposure marks item as written by txn with one grant that is both
// its D mark — another transaction's conventional access now requires
// interleaving permission at txn's current breakpoint — and, unless txn.Comp
// is NoStep, its C reservation: assertional locks txn's compensating step
// would interfere with are refused on it (§3.4's "new type of assertional
// lock"). Idempotent per (txn, item); the first step to mark wins, so
// aborting a later step does not drop an earlier mark.
func (m *Manager) AttachExposure(txn *spi.Txn, item spi.Item) {
	m.attach(txn)
	sh, h := m.shardOf(item)
	sh.mu.Lock()
	st := sh.state(item, h)
	if st.entry(txn.ID, kindExposure, 0) != nil {
		sh.mu.Unlock()
		return
	}
	g := sh.newGrant(txn, st, kindExposure)
	if len(st.queue) > 0 {
		sh.contest(g)
	}
	sh.mu.Unlock()
}

// releaseWhere removes the grants of txn that dropLock selects among its
// conventional and retired grants and dropMark among its A entries and D/C
// marks, then re-runs the grant pass of every state that changed, once each.
// A nil dropLock leaves the locks alone. A nil dropMark keeps every mark but
// re-examines the waiters behind its contested ones: the holder is at a step
// boundary, and exposure conflicts depend on its breakpoint. It visits only
// the shards where the transaction holds something (txnLocks.mask), one
// latch at a time; the release is not atomic across shards, which is
// harmless — lock release order within the shrinking phase of 2PL is
// unconstrained. A transaction left holding nothing gives its held sets back.
func (m *Manager) releaseWhere(txn *spi.Txn, dropLock, dropMark func(*grant) bool) {
	tl, _ := txn.Locks.(*txnLocks)
	if tl == nil {
		return
	}
	for mask := tl.mask; mask != 0; mask &= mask - 1 {
		sh := m.shards[bits.TrailingZeros64(mask)]
		sh.mu.Lock()
		m.releaseInShard(sh, tl, dropLock, dropMark)
		sh.mu.Unlock()
	}
	if tl.mask == 0 {
		m.detach(txn, tl)
	}
}

// releaseInShard applies a release pass to the transaction's held set in one
// shard. Marks that drop leave its contested list before their grants are
// recycled; a boundary that keeps the marks keeps listed only those whose
// state still has waiters. Caller holds sh.mu.
func (m *Manager) releaseInShard(sh *shard, tl *txnLocks, dropLock, dropMark func(*grant) bool) {
	hs := &tl.sets[sh.idx]
	sh.pass++
	if dropLock != nil {
		hs.locks = sh.dropFrom(hs.locks, dropLock)
	}
	if dropMark != nil {
		hs.contested = slices.DeleteFunc(hs.contested, dropMark)
		hs.marks = sh.dropFrom(hs.marks, dropMark)
	} else {
		for _, g := range hs.contested {
			sh.touch(g.st)
		}
	}
	for _, st := range sh.touched {
		m.grantPass(sh, st)
	}
	sh.touched = sh.touched[:0]
	if dropMark == nil {
		hs.contested = slices.DeleteFunc(hs.contested, uncontested)
	}
	if len(hs.locks) == 0 && len(hs.marks) == 0 {
		tl.mask &^= sh.bit
	}
}

func dropEvery(*grant) bool { return true }

// uncontested reports whether a contested mark's state has no waiter left,
// and if so unflags the mark. Caller holds the shard latch.
func uncontested(g *grant) bool {
	if len(g.st.queue) > 0 {
		return false
	}
	g.contested = false
	return true
}

// Retire gives up txn's conventional locks at a step boundary (strict 2PL
// within the step) whose log record ends at lsn, the log being durable
// through durable. Read-mode grants are dropped. Write-mode grants stay as
// retired grants stamped lsn — one per item, a later boundary's grant on the
// same item folds into it — unless lsn is already durable; txn's earlier
// retired grants that became durable meanwhile are dropped as well. final is
// the transaction's last boundary: its assertional entries and D/C marks go
// too, leaving only retired grants for ReleaseAll.
func (m *Manager) Retire(txn *spi.Txn, lsn, durable uint64, final bool) {
	dropMark := dropEvery
	if !final {
		dropMark = nil
	}
	m.releaseWhere(txn, func(g *grant) bool {
		switch {
		case g.kind == kindRetired:
			return g.lsn <= durable
		case lsn <= durable || g.mode == spi.ModeIS || g.mode == spi.ModeS:
			return true
		}
		if r := g.st.entry(txn.ID, kindRetired, 0); r != nil {
			r.mode, r.lsn = sup(r.mode, g.mode), lsn
			return true
		}
		g.kind, g.lsn = kindRetired, lsn
		g.st.retired++
		return false
	}, dropMark)
}

// ReleaseStepAbort releases txn's conventional locks plus the D/C marks
// attached during the aborted step (its writes are being undone).
// Assertional locks are retained — the paper keeps them between steps, which
// is why a recurring deadlock escalates to compensation.
func (m *Manager) ReleaseStepAbort(txn *spi.Txn) {
	seq := txn.CompletedSteps()
	m.releaseWhere(txn, func(g *grant) bool {
		return g.kind == kindConventional
	}, func(g *grant) bool {
		return g.kind != kindAssertional && g.stepSeq >= seq
	})
}

// ReleaseAssertion drops txn's assertional locks for one assertion type
// (its precondition has been discharged by the completing step).
func (m *Manager) ReleaseAssertion(txn *spi.Txn, a interference.AssertionID) {
	m.releaseWhere(txn, nil, func(g *grant) bool {
		return g.kind == kindAssertional && g.assertion == a
	})
}

// ReleaseAll releases everything txn holds, retired grants included: an
// abort, or the end of the durability wait that follows the final Retire.
func (m *Manager) ReleaseAll(txn *spi.Txn) {
	m.releaseWhere(txn, dropEvery, dropEvery)
}

// HeldItems returns the items on which txn currently holds any entry,
// useful for tests and debugging. Call it on the transaction's goroutine or
// while the transaction is idle.
func (m *Manager) HeldItems(txn *spi.Txn) []spi.Item {
	tl, _ := txn.Locks.(*txnLocks)
	if tl == nil {
		return nil
	}
	var out []spi.Item
	for _, sh := range m.shards {
		sh.mu.Lock()
		hs := &tl.sets[sh.idx]
		for _, g := range slices.Concat(hs.locks, hs.marks) {
			if !slices.Contains(out, g.st.item) {
				out = append(out, g.st.item)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// HoldsConventional reports whether txn holds a conventional lock of at
// least mode want on item.
func (m *Manager) HoldsConventional(txn spi.TxnID, item spi.Item, want spi.Mode) bool {
	sh, h := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.find(item, h)
	if st == nil {
		return false
	}
	g := st.entry(txn, kindConventional, 0)
	return g != nil && covers(g.mode, want)
}

// ByClass returns the per-class wait tallies, aggregated across shards and
// keyed "table/level/mode/step", the step named by the oracle.
func (m *Manager) ByClass() map[string]spi.ClassStats {
	out := make(map[string]spi.ClassStats)
	for _, sh := range m.shards {
		sh.mu.Lock()
		for k, v := range sh.byClass {
			name := k.table + "/" + k.level.String() + "/" + k.mode.String() + "/" + m.oracle.StepName(k.step)
			agg := out[name]
			agg.Waits += v.Waits
			agg.WaitNanos += v.WaitNanos
			out[name] = agg
		}
		sh.mu.Unlock()
	}
	return out
}

// Stats returns the counters, aggregated across shards.
func (m *Manager) Stats() spi.LockStats {
	var s spi.LockStats
	for _, sh := range m.shards {
		s.Acquisitions += sh.stats.acquisitions.Load()
		s.Waits += sh.stats.waits.Load()
		s.WaitNanos += sh.stats.waitNanos.Load()
		s.Deadlocks += sh.stats.deadlocks.Load()
		s.VictimsForComp += sh.stats.victimsForComp.Load()
	}
	return s
}
