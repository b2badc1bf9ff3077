package lock

import (
	"hash/maphash"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"accdb/internal/spi"
)

// The lock table is the sharded hash table of lock chains inside the Ingres
// lock manager the paper modified. An item is hashed once (itemHash): the
// hash's low bits pick the shard, its next bits a bucket of that shard, and
// the bucket chains the item's lock state with the others that hash there.
// Each shard owns its own latch, buckets, wait queues and counters, so
// Acquires on unrelated items proceed in parallel. What a transaction holds
// in a shard is indexed on the transaction itself (txnLocks, in
// spi.Txn.Locks), one held set per shard, read and written under that
// shard's latch.
//
// Invariant: a goroutine never holds two shard latches at once — of this
// manager or, on a deadlock walk, of any other. Everything cross-shard
// (deadlock detection, multi-item release, stats aggregation) works one
// shard at a time.
//
// A state is linked while it has a grant or a waiter: the pass that empties
// it unlinks it at once. Each shard recycles its lock-chain machinery — lock
// states and grant entries — through small freelists guarded by the shard
// latch, and the manager recycles transactions' held sets through one of its
// own, so the grant/release hot path performs no allocations in steady
// state, however many distinct items pass through.

// shardBits is how many low hash bits may pick a shard; maxShards caps the
// shard count so a transaction's touched-shard set fits in one bitmask word
// (txnLocks.mask).
const (
	shardBits = 6
	maxShards = 1 << shardBits
)

// bucketCount is the number of lock chains per shard, a power of two.
const bucketCount = 1024

// freelistCap bounds each recycling freelist.
const freelistCap = 256

// itemSeed keys itemHash for the life of the process.
var itemSeed = maphash.MakeSeed()

// itemHash is the one hash of an item's identity (table, level, key) that
// routes it to its shard and bucket.
func itemHash(it spi.Item) uint64 {
	t := maphash.String(itemSeed, it.Table) + uint64(it.Level)
	return maphash.String(itemSeed, string(it.Key)) ^ bits.RotateLeft64(t*0x9E3779B97F4A7C15, 32)
}

// bucketOf is the bucket index of hash h within its shard.
func bucketOf(h uint64) uint64 { return (h >> shardBits) & (bucketCount - 1) }

// defaultShardCount picks N = max(16, 4×GOMAXPROCS), rounded up to a power
// of two and capped at maxShards.
func defaultShardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 16 {
		n = 16
	}
	if n > maxShards {
		n = maxShards
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// classKey identifies a contention class: the waited-on item's table and
// level, the requested mode, and the step type of the request that waited.
// Using a struct key instead of a concatenated string keeps the per-wait
// accounting allocation-free on the hot path; ByClass names it.
type classKey struct {
	table string
	level spi.Level
	mode  spi.Mode
	step  spi.StepTypeID
}

// shardCounters are bumped atomically (without the shard latch) and
// aggregated by Manager.Snapshot.
type shardCounters struct {
	acquisitions   atomic.Uint64
	waits          atomic.Uint64
	waitNanos      atomic.Uint64
	deadlocks      atomic.Uint64
	victimsForComp atomic.Uint64
}

// heldSet indexes the grants a transaction holds within one shard by
// handle, so a release pass visits exactly those grants and hashes no item.
// locks are its conventional and retired grants — what a step boundary
// gives up — and marks its A entries and D/C marks, which stay to the final
// boundary. A grant is listed once, when it is created. contested lists the
// D/C marks (each flagged grant.contested) whose state has had a waiter since
// the holder's last boundary: the only marks a non-final boundary revisits,
// because only their waiters' exposure conflicts hang on the holder's
// breakpoint. Guarded by the shard's latch.
type heldSet struct {
	locks     []*grant
	marks     []*grant
	contested []*grant
}

// txnLocks is what the manager keeps in spi.Txn.Locks: the transaction's held
// set in every shard, indexed by shard, and mask, the shards whose set is not
// empty. A set is guarded by its shard's latch. mask is written under each
// shard's latch in turn, and only by whoever acts for the transaction — its
// own goroutine, or the grantor of its parked waiter — so only they read it.
type txnLocks struct {
	mask uint64
	sets []heldSet
}

// shard is one partition of the lock table.
type shard struct {
	mu      sync.Mutex
	buckets [bucketCount]*lockState      // chains through lockState.next
	byClass map[classKey]*spi.ClassStats // guarded by mu

	// pass numbers release passes; touched lists the states the current one
	// changed, each once (lockState.pass), for their grant passes.
	pass    uint64
	touched []*lockState

	// Freelists, guarded by mu.
	statePool []*lockState
	grantPool []*grant

	stats shardCounters

	// bit is this shard's position in txnLocks.mask.
	bit uint64
	// idx is the shard's index, shown in snapshots.
	idx int16

	// Pad shards apart so neighbouring shards' latches and counters do not
	// share a cache line.
	_ [64]byte
}

func newShard(i int) *shard {
	return &shard{
		byClass: make(map[classKey]*spi.ClassStats),
		bit:     1 << uint(i),
		idx:     int16(i),
	}
}

// find returns item's linked lock state, or nil; h is itemHash(item). Caller
// holds sh.mu.
func (sh *shard) find(item spi.Item, h uint64) *lockState {
	for st := sh.buckets[bucketOf(h)]; st != nil; st = st.next {
		if st.hash == h && st.item == item {
			return st
		}
	}
	return nil
}

// state returns item's lock state, linking a fresh one at the head of its
// chain if it has none; h is itemHash(item). Every caller installs a grant or
// a waiter on a fresh state before it lets go of the latch. Caller holds
// sh.mu.
func (sh *shard) state(item spi.Item, h uint64) *lockState {
	if st := sh.find(item, h); st != nil {
		return st
	}
	var st *lockState
	if n := len(sh.statePool); n > 0 {
		st = sh.statePool[n-1]
		sh.statePool = sh.statePool[:n-1]
	} else {
		st = &lockState{}
	}
	b := &sh.buckets[bucketOf(h)]
	st.item, st.hash, st.next = item, h, *b
	*b = st
	return st
}

// reapState unlinks a state whose grants and queue emptied and recycles it
// without its item, so a pooled state keeps no key alive; every removal from
// the grant list and the queue zeroed the slot it vacated, so neither pins a
// dequeued waiter or a dropped grant. Caller holds sh.mu.
func (sh *shard) reapState(st *lockState) {
	for p := &sh.buckets[bucketOf(st.hash)]; *p != nil; p = &(*p).next {
		if *p == st {
			*p = st.next
			break
		}
	}
	*st = lockState{grants: st.grants[:0], queue: st.queue[:0]}
	if len(sh.statePool) < freelistCap {
		sh.statePool = append(sh.statePool, st)
	}
}

// newGrant links a fresh grant of the given kind for txn onto st, at the end
// of its grant list, and lists it in txn's held set: a conventional grant
// with the locks, an A entry or a D/C mark with the marks. Caller holds
// sh.mu and acts for txn.
func (sh *shard) newGrant(txn *spi.Txn, st *lockState, kind grantKind) *grant {
	var g *grant
	if n := len(sh.grantPool); n > 0 {
		g = sh.grantPool[n-1]
		sh.grantPool = sh.grantPool[:n-1]
	} else {
		g = &grant{}
	}
	g.txn, g.st, g.kind, g.stepSeq, g.idx = txn, st, kind, txn.CompletedSteps(), len(st.grants)
	st.grants = append(st.grants, g)
	tl := txn.Locks.(*txnLocks)
	tl.mask |= sh.bit
	hs := &tl.sets[sh.idx]
	if kind == kindConventional {
		hs.locks = append(hs.locks, g)
	} else {
		hs.marks = append(hs.marks, g)
	}
	return g
}

// freeGrant recycles a dropped grant. Caller holds sh.mu.
func (sh *shard) freeGrant(g *grant) {
	*g = grant{}
	if len(sh.grantPool) < freelistCap {
		sh.grantPool = append(sh.grantPool, g)
	}
}

// heldOf returns the held set in this shard of txn, which holds a grant here
// or has a waiter on its behalf. Caller holds sh.mu.
func (sh *shard) heldOf(txn *spi.Txn) *heldSet {
	return &txn.Locks.(*txnLocks).sets[sh.idx]
}

// contest lists g in its holder's contested marks, once, if it is a D/C
// mark: a waiter has queued on its state. Caller holds sh.mu.
func (sh *shard) contest(g *grant) {
	if g.kind == kindExposure && !g.contested {
		g.contested = true
		hs := sh.heldOf(g.txn)
		hs.contested = append(hs.contested, g)
	}
}

// dropFrom unlinks and recycles the grants of a held slice that drop selects
// and returns the rest. A state that lost a grant, or whose grant drop
// changed in place (Retire's conversion to retired), gets a grant pass at
// the end of the release pass. Caller holds sh.mu.
func (sh *shard) dropFrom(held []*grant, drop func(*grant) bool) []*grant {
	keep := held[:0]
	for _, g := range held {
		kind := g.kind
		if drop(g) {
			sh.touch(g.st)
			g.st.unlink(g)
			sh.freeGrant(g)
			continue
		}
		if g.kind != kind {
			sh.touch(g.st)
		}
		keep = append(keep, g)
	}
	return keep
}

// touch schedules st's grant pass for the end of the current release pass,
// once however many of the pass's grants sat on it. Caller holds sh.mu.
func (sh *shard) touch(st *lockState) {
	if st.pass != sh.pass {
		st.pass = sh.pass
		sh.touched = append(sh.touched, st)
	}
}

// recordWait tallies one finished wait (granted, aborted, deadlocked or
// timed out — every exit path) of request req against the shard and its
// contention class.
func (sh *shard) recordWait(item spi.Item, req spi.LockRequest, waitedNanos uint64) {
	sh.stats.waitNanos.Add(waitedNanos)
	k := classKey{table: item.Table, level: item.Level, mode: req.Mode, step: req.Step}
	sh.mu.Lock()
	cs, ok := sh.byClass[k]
	if !ok {
		cs = &spi.ClassStats{}
		sh.byClass[k] = cs
	}
	cs.Waits++
	cs.WaitNanos += waitedNanos
	sh.mu.Unlock()
}

// shardOf hashes item once and returns its shard and the hash, which then
// picks the item's bucket there.
func (m *Manager) shardOf(item spi.Item) (*shard, uint64) {
	h := itemHash(item)
	return m.shards[h&m.shardMask], h
}
