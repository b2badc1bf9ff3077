package lock

import (
	"runtime"
	"sync"
	"sync/atomic"
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
	level Level
	mode  Mode
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

// heldSet lists the items a transaction holds entries on within one shard.
// A slice (with linear dedup in noteHeld) beats a map here: transactions
// hold few items per shard, and the pointer indirection keeps the held map
// free of per-append reassignments.
type heldSet struct {
	items []Item
}

// shard is one partition of the lock table.
type shard struct {
	mu      sync.Mutex
	items   map[Item]*lockState
	held    map[TxnID]*heldSet
	byClass map[classKey]*ClassStats // guarded by mu

	// emptyStates counts empty lock states currently retained in items.
	emptyStates int

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
		items:   make(map[Item]*lockState),
		held:    make(map[TxnID]*heldSet),
		byClass: make(map[classKey]*ClassStats),
		bit:     1 << uint(i),
		idx:     int16(i),
	}
}

// state returns the lock state for item, creating it if needed. Caller
// holds sh.mu. Every caller either finds existing entries or installs a
// grant/waiter, so a retained-empty state returned here is counted as
// in-use again.
func (sh *shard) state(item Item) *lockState {
	st, ok := sh.items[item]
	if !ok {
		if n := len(sh.statePool); n > 0 {
			st = sh.statePool[n-1]
			sh.statePool = sh.statePool[:n-1]
		} else {
			st = &lockState{}
		}
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
func (sh *shard) reapState(item Item, st *lockState) {
	if sh.emptyStates < maxEmptyStates {
		sh.emptyStates++
		return
	}
	delete(sh.items, item)
	if len(sh.statePool) < freelistCap {
		st.grants = st.grants[:0]
		st.queue = st.queue[:0]
		sh.statePool = append(sh.statePool, st)
	}
}

// newGrant returns a zeroed grant from the freelist. Caller holds sh.mu.
func (sh *shard) newGrant() *grant {
	if n := len(sh.grantPool); n > 0 {
		g := sh.grantPool[n-1]
		sh.grantPool = sh.grantPool[:n-1]
		return g
	}
	return &grant{}
}

// freeGrant recycles a dropped grant. Caller holds sh.mu.
func (sh *shard) freeGrant(g *grant) {
	*g = grant{}
	if len(sh.grantPool) < freelistCap {
		sh.grantPool = append(sh.grantPool, g)
	}
}

// noteHeld records that txn holds an entry on item in this shard and marks
// the shard in the transaction's touched-shard set. Caller holds sh.mu.
func (sh *shard) noteHeld(txn *TxnInfo, item Item) {
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
	for _, it := range hs.items {
		if it == item {
			return
		}
	}
	hs.items = append(hs.items, item)
}

// dropHeld removes the transaction's held record and recycles it. Caller
// holds sh.mu.
func (sh *shard) dropHeld(txn TxnID, hs *heldSet) {
	delete(sh.held, txn)
	hs.items = hs.items[:0]
	if len(sh.heldPool) < freelistCap {
		sh.heldPool = append(sh.heldPool, hs)
	}
}

// recordWait tallies one finished wait (granted, aborted, deadlocked or
// timed out — every exit path) against the shard and its contention class.
func (sh *shard) recordWait(item Item, mode Mode, waitedNanos uint64) {
	sh.stats.waitNanos.Add(waitedNanos)
	k := classKey{table: item.Table, level: item.Level, mode: mode}
	sh.mu.Lock()
	cs, ok := sh.byClass[k]
	if !ok {
		cs = &ClassStats{}
		sh.byClass[k] = cs
	}
	cs.Waits++
	cs.WaitNanos += waitedNanos
	sh.mu.Unlock()
}

// shardOf routes an item to its shard by an FNV-1a hash of the full item
// identity (table, level, key).
func (m *Manager) shardOf(item Item) *shard {
	return m.shards[m.shardIndex(item)]
}

func (m *Manager) shardIndex(item Item) int {
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
