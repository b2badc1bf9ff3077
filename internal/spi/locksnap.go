package spi

import (
	"fmt"
	"strings"
)

// Lock-table introspection data model. A LockService.Snapshot returns a
// structural dump: every held entry — conventional modes and the paper's
// A/D/C kinds — every wait queue, and the waits-for edges as deadlock
// detection would see them. The dump is advisory: an implementation may
// observe its internal partitions at slightly different instants, the same
// consistency deadlock detection itself settles for.

// TableSnapshot is a point-in-time structural dump of the lock table.
type TableSnapshot struct {
	// Shards lists only shards with at least one populated item; a
	// non-sharded implementation reports a single shard 0.
	Shards []ShardSnapshot
	// Edges is the waits-for graph: Edges[i].From waits for Edges[i].To.
	Edges []WaitEdge
}

// ShardSnapshot dumps one lock-table partition.
type ShardSnapshot struct {
	Index int
	Items []ItemSnapshot
}

// ItemSnapshot dumps one item's grant list and wait queue.
type ItemSnapshot struct {
	Item   Item
	Grants []GrantSnapshot
	Queue  []WaitSnapshot
}

// GrantSnapshot describes one held entry. Kind is "lock" for conventional
// entries, "retired" for a conventional grant given up before its log record
// was durable (it blocks nobody; LSN is the record's log position), or the
// paper's tags: "A" (assertional), "D" (exposure mark), "C" (compensation
// reservation). Mode carries the conventional mode for "lock" and "retired"
// entries and repeats the tag otherwise.
type GrantSnapshot struct {
	Txn       TxnID
	Kind      string
	Mode      string
	Assertion int    // assertion ID for "A" entries, else -1
	LSN       uint64 // "retired" entries only
}

// WaitSnapshot describes one queued (still blocked) request.
type WaitSnapshot struct {
	Txn          TxnID
	Mode         string
	Compensating bool
	Conversion   bool
}

// WaitEdge is one waits-for edge, annotated with the contested item.
type WaitEdge struct {
	From TxnID
	To   TxnID
	Item Item
}

// GrantCount totals held entries across the dump.
func (s *TableSnapshot) GrantCount() int {
	n := 0
	for _, sh := range s.Shards {
		for _, it := range sh.Items {
			n += len(it.Grants)
		}
	}
	return n
}

// WaiterCount totals blocked requests across the dump.
func (s *TableSnapshot) WaiterCount() int {
	n := 0
	for _, sh := range s.Shards {
		for _, it := range sh.Items {
			n += len(it.Queue)
		}
	}
	return n
}

// DOT renders the waits-for graph in Graphviz DOT form. Blocked transactions
// and their blockers appear as nodes; each edge is labelled with the
// contested item. An empty graph still renders a valid digraph.
func (s *TableSnapshot) DOT() string {
	var b strings.Builder
	b.WriteString("digraph waitsfor {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=circle];\n")
	seen := make(map[TxnID]bool)
	node := func(t TxnID) {
		if !seen[t] {
			seen[t] = true
			fmt.Fprintf(&b, "  t%d [label=\"T%d\"];\n", t, t)
		}
	}
	for _, e := range s.Edges {
		node(e.From)
		node(e.To)
	}
	for _, e := range s.Edges {
		fmt.Fprintf(&b, "  t%d -> t%d [label=%q];\n", e.From, e.To, e.Item.String())
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the dump as indented text for debug endpoints and logs.
func (s *TableSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lock table: %d grants, %d waiters, %d waits-for edges\n",
		s.GrantCount(), s.WaiterCount(), len(s.Edges))
	for _, sh := range s.Shards {
		fmt.Fprintf(&b, "shard %d:\n", sh.Index)
		for _, it := range sh.Items {
			fmt.Fprintf(&b, "  %s:\n", it.Item)
			for _, g := range it.Grants {
				if g.Kind == "A" {
					fmt.Fprintf(&b, "    held T%d A(assertion=%d)\n", g.Txn, g.Assertion)
				} else if g.Kind == "lock" {
					fmt.Fprintf(&b, "    held T%d %s\n", g.Txn, g.Mode)
				} else if g.Kind == "retired" {
					fmt.Fprintf(&b, "    retired T%d %s (lsn %d)\n", g.Txn, g.Mode, g.LSN)
				} else {
					fmt.Fprintf(&b, "    held T%d %s\n", g.Txn, g.Kind)
				}
			}
			for _, w := range it.Queue {
				flags := ""
				if w.Conversion {
					flags += " conversion"
				}
				if w.Compensating {
					flags += " compensating"
				}
				fmt.Fprintf(&b, "    wait T%d %s%s\n", w.Txn, w.Mode, flags)
			}
		}
	}
	for _, e := range s.Edges {
		fmt.Fprintf(&b, "T%d waits-for T%d on %s\n", e.From, e.To, e.Item)
	}
	return b.String()
}
