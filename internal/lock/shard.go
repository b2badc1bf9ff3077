package lock

import (
	"runtime"
	"sync"
	"sync/atomic"

	"accdb/internal/spi"
)

// The lock table is partitioned into shards, mirroring the sharded hash
// table of lock chains inside the Ingres lock manager the paper modified.
// Each shard owns its own latch, item map, wait queues, held-set index and
// counters, so Acquires on unrelated items proceed in parallel.
//
// Invariant: a goroutine never holds two shard latches at once — of this
// manager or, on a deadlock walk, of any other. Everything cross-shard
// (deadlock detection, multi-item release, stats aggregation) works one
// shard at a time.
//
// Each shard recycles its lock-chain machinery — lock states, grant
// entries and per-transaction held lists — through small freelists guarded
// by the shard latch, and retains a bounded number of empty lock states in
// the item map, so the grant/release hot path performs no allocations and
// no map inserts/deletes in steady state.

// maxShards caps the shard count so a transaction's touched-shard set fits
// in one atomic bitmask word (spi.Txn.ShardMask).
const maxShards = 64

// maxEmptyStates bounds how many item-less lock states a shard retains in
// its map to keep hot items' chains warm; beyond it, empties are unlinked
// and recycled through the freelist.
const maxEmptyStates = 1024

// freelistCap bounds each shard's recycling freelists.
const freelistCap = 256

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

// classKey identifies a (table, level, mode) contention class. Using a
// struct key instead of a concatenated string keeps the per-wait accounting
// allocation-free on the hot path.
type classKey struct {
	table string
	level spi.Level
	mode  spi.Mode
}

func (k classKey) String() string {
	return k.table + "/" + k.level.String() + "/" + k.mode.String()
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
// handle, so a release pass visits exactly those grants and probes no item
// map. locks are its conventional and retired grants — what a step boundary
// gives up — and marks its A, D and C entries, which stay to the final
// boundary. A grant is listed once, when it is created.
type heldSet struct {
	locks []*grant
	marks []*grant
}

// shard is one partition of the lock table.
type shard struct {
	mu      sync.Mutex
	items   map[spi.Item]*lockState
	held    map[spi.TxnID]*heldSet
	byClass map[classKey]*spi.ClassStats // guarded by mu

	// emptyStates counts empty lock states currently retained in items.
	emptyStates int

	// pass numbers release passes; touched lists the states the current one
	// changed, each once (lockState.pass), for their grant passes.
	pass    uint64
	touched []*lockState

	// Freelists, guarded by mu.
	statePool []*lockState
	grantPool []*grant
	heldPool  []*heldSet

	stats shardCounters

	// bit is this shard's position in spi.Txn.ShardMask.
	bit uint64
	// idx is the shard's index, tagged onto trace events and snapshots.
	idx int16

	// Pad shards apart so neighbouring shards' latches and counters do not
	// share a cache line.
	_ [64]byte
}

func newShard(i int) *shard {
	return &shard{
		items:   make(map[spi.Item]*lockState),
		held:    make(map[spi.TxnID]*heldSet),
		byClass: make(map[classKey]*spi.ClassStats),
		bit:     1 << uint(i),
		idx:     int16(i),
	}
}

// state returns the lock state for item, creating it if needed. Caller
// holds sh.mu. Every caller either finds existing entries or installs a
// grant/waiter, so a retained-empty state returned here is counted as
// in-use again.
func (sh *shard) state(item spi.Item) *lockState {
	st, ok := sh.items[item]
	if !ok {
		if n := len(sh.statePool); n > 0 {
			st = sh.statePool[n-1]
			sh.statePool = sh.statePool[:n-1]
		} else {
			st = &lockState{}
		}
		st.item = item
		sh.items[item] = st
	} else if len(st.grants) == 0 && len(st.queue) == 0 {
		sh.emptyStates--
	}
	return st
}

// reapState is called after an item's grants and queue emptied. It retains
// the empty state in the map (up to maxEmptyStates) so re-locking a hot
// item performs no map insert; overflow is unlinked and recycled. Caller
// holds sh.mu.
func (sh *shard) reapState(st *lockState) {
	if sh.emptyStates < maxEmptyStates {
		sh.emptyStates++
		return
	}
	delete(sh.items, st.item)
	if len(sh.statePool) < freelistCap {
		st.grants = st.grants[:0]
		st.queue = st.queue[:0]
		sh.statePool = append(sh.statePool, st)
	}
}

// newGrant links a fresh grant of the given kind for txn onto st and lists
// it in txn's held set: a conventional grant with the locks, the A/D/C kinds
// with the marks. Caller holds sh.mu.
func (sh *shard) newGrant(txn *spi.Txn, st *lockState, kind grantKind) *grant {
	var g *grant
	if n := len(sh.grantPool); n > 0 {
		g = sh.grantPool[n-1]
		sh.grantPool = sh.grantPool[:n-1]
	} else {
		g = &grant{}
	}
	g.txn, g.st, g.kind, g.stepSeq = txn, st, kind, txn.CompletedSteps()
	st.grants = append(st.grants, g)
	hs := sh.heldOf(txn)
	if kind == kindConventional {
		hs.locks = append(hs.locks, g)
	} else {
		hs.marks = append(hs.marks, g)
	}
	return g
}

// freeGrant recycles a dropped grant, keeping its csTypes array for the next
// reservation. Caller holds sh.mu.
func (sh *shard) freeGrant(g *grant) {
	*g = grant{csTypes: g.csTypes[:0]}
	if len(sh.grantPool) < freelistCap {
		sh.grantPool = append(sh.grantPool, g)
	}
}

// heldOf returns txn's held set in this shard, creating it — and marking the
// shard in the transaction's touched-shard set — on first use. Caller holds
// sh.mu.
func (sh *shard) heldOf(txn *spi.Txn) *heldSet {
	hs, ok := sh.held[txn.ID]
	if !ok {
		if n := len(sh.heldPool); n > 0 {
			hs = sh.heldPool[n-1]
			sh.heldPool = sh.heldPool[:n-1]
		} else {
			hs = &heldSet{}
		}
		sh.held[txn.ID] = hs
		markShard(txn, sh.bit)
	}
	return hs
}

// dropHeld removes the transaction's emptied held set and recycles it.
// Caller holds sh.mu.
func (sh *shard) dropHeld(txn spi.TxnID, hs *heldSet) {
	delete(sh.held, txn)
	if len(sh.heldPool) < freelistCap {
		sh.heldPool = append(sh.heldPool, hs)
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
// timed out — every exit path) against the shard and its contention class.
func (sh *shard) recordWait(item spi.Item, mode spi.Mode, waitedNanos uint64) {
	sh.stats.waitNanos.Add(waitedNanos)
	k := classKey{table: item.Table, level: item.Level, mode: mode}
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

// shardOf routes an item to its shard by an FNV-1a hash of the full item
// identity (table, level, key).
func (m *Manager) shardOf(item spi.Item) *shard {
	return m.shards[m.shardIndex(item)]
}

func (m *Manager) shardIndex(item spi.Item) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(item.Table); i++ {
		h = (h ^ uint64(item.Table[i])) * prime64
	}
	h = (h ^ uint64(item.Level)) * prime64
	for i := 0; i < len(item.Key); i++ {
		h = (h ^ uint64(item.Key[i])) * prime64
	}
	return int(h & m.shardMask)
}
