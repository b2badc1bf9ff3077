package core

import (
	"sync"

	"accdb/internal/spi"
)

// History recording and the serializability checker.
//
// The correctness tests use this to demonstrate the paper's central claim
// concretely: the baseline scheduler only ever produces conflict-
// serializable histories, while the ACC routinely produces histories that
// are NOT conflict serializable — yet still semantically correct (every
// postcondition holds and the consistency constraint is restored).
//
// A read of fixed columns (Ctx.GetCols) takes no lock and is not recorded:
// a value no transaction writes takes part in no conflict.

// Access is one recorded data access by a committed transaction.
type Access struct {
	Txn   uint64
	Seq   int // global order of the access
	Table string
	PK    spi.Key // empty for full-table scans
	Write bool
}

// History is a snapshot of recorded accesses, restricted at snapshot time to
// transactions that committed (or finished compensating).
type History struct {
	Accesses []Access
}

type history struct {
	mu        sync.Mutex
	seq       int
	accesses  []Access
	committed map[uint64]bool
}

func newHistory() *history {
	return &history{committed: make(map[uint64]bool)}
}

// record appends one access; cheap no-op when history is disabled.
func (e *Engine) record(txn *txnState, table string, pk spi.Key, write bool) {
	if e.hist == nil {
		return
	}
	h := e.hist
	h.mu.Lock()
	h.accesses = append(h.accesses, Access{
		Txn: uint64(txn.info.ID), Seq: h.seq, Table: table, PK: pk, Write: write,
	})
	h.seq++
	h.mu.Unlock()
}

// recordCommit marks txn's accesses as belonging to a finished transaction.
func (e *Engine) recordCommit(txn *txnState) {
	if e.hist == nil {
		return
	}
	h := e.hist
	h.mu.Lock()
	h.committed[uint64(txn.info.ID)] = true
	h.mu.Unlock()
}

func (h *history) snapshot() *History {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := &History{}
	for _, a := range h.accesses {
		if h.committed[a.Txn] {
			out.Accesses = append(out.Accesses, a)
		}
	}
	return out
}

// ConflictSerializable reports whether the history's committed transactions
// are conflict serializable: it builds the conflict graph (an edge T1→T2 for
// each pair of conflicting accesses where T1's access precedes T2's and at
// least one is a write to the same item) and checks it for cycles.
func (h *History) ConflictSerializable() bool {
	type itemID struct {
		table string
		pk    spi.Key
	}
	edges := make(map[uint64]map[uint64]bool)
	addEdge := func(a, b uint64) {
		if a == b {
			return
		}
		m, ok := edges[a]
		if !ok {
			m = make(map[uint64]bool)
			edges[a] = m
		}
		m[b] = true
	}
	byItem := make(map[itemID][]Access)
	for _, a := range h.Accesses {
		byItem[itemID{a.Table, a.PK}] = append(byItem[itemID{a.Table, a.PK}], a)
	}
	for _, accs := range byItem {
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				if accs[i].Write || accs[j].Write {
					addEdge(accs[i].Txn, accs[j].Txn)
				}
			}
		}
	}
	// Cycle detection by iterative three-color DFS.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[uint64]int)
	var stack []uint64
	for start := range edges {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			if color[n] == white {
				color[n] = gray
				for m := range edges[n] {
					if color[m] == gray {
						return false
					}
					if color[m] == white {
						stack = append(stack, m)
					}
				}
				continue
			}
			color[n] = black
			stack = stack[:len(stack)-1]
		}
	}
	return true
}
