package lock

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"accdb/internal/spi"
)

// Deadlock handling (§3.4 of the paper).
//
// A deadlock is detected by finding a cycle in the waits-for graph at the
// moment a request blocks; the victim is the request that completes the
// cycle, which the engine answers by aborting and retrying just that step.
// If the victim is a compensating step, it must not be aborted: instead the
// manager aborts forward-step waiters on the cycle until the compensation
// can make progress ("when a compensating step completes a deadlock cycle,
// it is not itself aborted, but rather, the ACC aborts all steps that are
// delaying it").
//
// The waits-for graph spans the shards of one lock table and, through
// global transactions, the lock tables of other partitions. A vertex is a
// transaction, or the whole group (spi.Group) of a global transaction's
// local transactions: they share one goroutine, so a grant held by the home
// transaction is released only when the shot blocked in another partition
// gets on. Every vertex publishes its blocked request in its Blocked slot
// when the request enqueues; detection resolves a blocker to that request
// and recomputes the request's own blockers under its shard latch, in
// whichever manager owns it. Because no two latches are ever held together,
// the walk observes the graph edge-by-edge rather than atomically; that is
// sound because
//
//   - a real deadlock cycle is stable — every member stays blocked until a
//     victim is removed — so the walk, which runs after the enqueuing
//     waiter has published itself, always sees a complete cycle (the last
//     member to publish is the one whose detection closes it); a group edge
//     needs no publication of its own: it is the blocker's Group pointer,
//     set before the blocker's first request, and the sibling's slot;
//   - a cycle that dissolves mid-walk can at worst produce a spurious
//     victim, which is safe: the victim aborts and retries its step, the
//     same outcome as any genuine deadlock.

// victimMu serializes victim selection across every manager of the process
// (a cycle may span several): two members that publish at the same instant
// both see the complete cycle, and the second to get here must find it
// already broken instead of dying too. Taken only once a cycle was seen.
var victimMu sync.Mutex

// blockedOf returns the published blocked request of t's group, if any: t's
// own, or a sibling's in another lock table. It may already be settled.
func blockedOf(t *spi.Txn) *waiter {
	w, _ := t.Group.Blocked.Load().(*waiter)
	return w
}

// shield ranks how strongly §3.4 protects w from being chosen as a victim:
// a compensating step's request most (the reservation locks promise it can
// always finish), then any request of a global transaction that is running
// its compensating undo shots, then forward work, not at all.
func (w *waiter) shield() int {
	switch {
	case w.req.Compensating:
		return 2
	case w.txn.Group.Undoing.Load():
		return 1
	}
	return 0
}

// resolveDeadlock checks whether the freshly enqueued waiter w completes a
// waits-for cycle and, until it completes none, applies the victim rule of
// §3.4 — here and nowhere else: the closer dies, unless the cycle has a less
// shielded member; then the first such member along the cycle dies in its
// place, so a compensating step yields to nobody, an undo shot only to a
// compensating step, and when all are shielded alike (the reservation locks
// are designed to make that impossible) the closer dies after all, to keep
// the system live. A forward victim whose cycle left its own lock table has
// its group doomed as well: retrying its step would re-form the cycle on the
// locks its siblings keep. Called with no latches held, after w was
// published; a dead w finds its outcome in w.err.
func resolveDeadlock(w *waiter) {
	if cycle, _ := findCycle(w); cycle == nil {
		return
	}
	victimMu.Lock()
	defer victimMu.Unlock()
	for {
		cycle, crossed := findCycle(w)
		if cycle == nil {
			return // granted, or a concurrent closer broke it
		}
		w.sh.stats.deadlocks.Add(1)
		victim := w
		for _, v := range cycle {
			if v.shield() < victim.shield() {
				victim = v
			}
		}
		if crossed && victim.shield() == 0 {
			victim.txn.Group.Doom(cycleString(cycle))
		}
		if victim == w {
			w.kill(spi.ErrDeadlock)
			return
		}
		if victim.kill(spi.ErrAborted) {
			victim.sh.stats.victimsForComp.Add(1)
		}
		// Re-check: w may sit on several overlapping cycles.
	}
}

// kill ends w's wait with err, unless it was granted or ended meanwhile: the
// one way a request is made to give up, by deadlock detection or by its own
// goroutine (wait budget, caller's context). Either way exactly one signal
// reaches w.ch, and the waiting goroutine accounts for the wait (finishWait).
func (w *waiter) kill(err error) bool {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.granted || w.err != nil {
		return false
	}
	w.err = err
	w.m.removeWaiter(sh, w)
	w.ch <- struct{}{}
	return true
}

// findCycle searches for a waits-for path from one of w's blockers back to
// w's vertex. It returns the waiters on the cycle (starting with w) and
// whether the path followed a group from one lock table into another, or
// nil. Called with no latches held.
func findCycle(w *waiter) (path []*waiter, crossed bool) {
	target := w.txn.Group
	visited := make(map[*spi.Group]bool)
	var dfs func(cur *waiter) bool
	dfs = func(cur *waiter) bool {
		path = append(path, cur)
		for _, b := range cur.blockers() {
			v := b.Group
			if v == target {
				crossed = crossed || b != w.txn
				return true
			}
			if visited[v] {
				continue
			}
			visited[v] = true
			if next := blockedOf(b); next != nil && dfs(next) {
				crossed = crossed || next.txn != b
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if dfs(w) {
		return path, crossed
	}
	return nil, false
}

// cycleString renders a cycle for the doom event: g<global id> for a member
// of a global transaction, T<local id> for a purely local one.
func cycleString(cycle []*waiter) string {
	var names []string
	for _, v := range cycle {
		if g := v.txn.Group; g.ID != 0 {
			names = append(names, fmt.Sprintf("g%d", g.ID))
		} else {
			names = append(names, fmt.Sprintf("T%d", v.txn.ID))
		}
	}
	return strings.Join(append(names, names[0]), "->")
}

// blockers lists the transactions w currently waits for: holders of
// grants that refuse it on its item, and earlier waiters in its queue whose
// would-be grants refuse it. It takes (and releases) w's shard latch; a
// waiter that has already been granted or aborted contributes no edges.
func (w *waiter) blockers() []*spi.Txn {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.granted || w.err != nil {
		return nil
	}
	return w.m.blockersLocked(w)
}

// blockersLocked computes w's current blockers from its item's state with
// the predicate that grants and queues requests (refuses). Every waiter in
// the queue is still waiting: a grant or a kill dequeues it under the same
// latch. Caller holds w's shard latch. Shared by deadlock detection and the
// waits-for snapshot (snapshot.go).
func (m *Manager) blockersLocked(w *waiter) []*spi.Txn {
	var out []*spi.Txn
	add := func(e *grant) {
		if m.refuses(w.txn, w.req, e) != clauseNone && !slices.Contains(out, e.txn) {
			out = append(out, e.txn)
		}
	}
	for _, g := range w.st.grants {
		add(g)
	}
	for _, q := range w.st.queue {
		if q == w {
			break
		}
		add(&q.would)
	}
	return out
}
