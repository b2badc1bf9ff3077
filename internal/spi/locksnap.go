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
//
// A partitioned engine has one lock table per partition, and transaction ids
// are per engine: WaitsForDOT and LocksText take every partition's dump, name
// a transaction p<N>:T<id>, and add the group edges detection follows from a
// blocker in one table to its global transaction's member blocked in another.

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

// WaitEdge is one waits-for edge, annotated with the contested item and with
// the global transaction (Group.ID) either end belongs to, 0 if none.
type WaitEdge struct {
	From, To           TxnID
	FromGroup, ToGroup uint64
	Item               Item
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

// snapNode is one transaction of one partition's dump.
type snapNode struct {
	part int
	txn  TxnID
}

// groupEdge: from waits for whatever to, its group's member blocked in
// another lock table, waits for.
type groupEdge struct {
	from, to snapNode
	group    uint64
}

// groupEdges derives the group edges of the partitions' dumps: one from every
// blocker whose global transaction has a member blocked elsewhere.
func groupEdges(parts []*TableSnapshot) []groupEdge {
	blocked := make(map[uint64]snapNode)
	for p, s := range parts {
		for _, e := range s.Edges {
			if e.FromGroup != 0 {
				blocked[e.FromGroup] = snapNode{p, e.From}
			}
		}
	}
	var out []groupEdge
	seen := make(map[snapNode]bool)
	for p, s := range parts {
		for _, e := range s.Edges {
			from := snapNode{p, e.To}
			if to, ok := blocked[e.ToGroup]; ok && to != from && !seen[from] {
				seen[from] = true
				out = append(out, groupEdge{from, to, e.ToGroup})
			}
		}
	}
	return out
}

// DOT renders the table's waits-for graph on its own (see WaitsForDOT).
func (s *TableSnapshot) DOT() string { return WaitsForDOT([]*TableSnapshot{s}) }

// WaitsForDOT renders the waits-for graph of the given lock tables, one per
// partition, in Graphviz DOT form. Blocked transactions and their blockers
// appear as nodes — T<id>, or p<N>:T<id> given several tables; each edge is
// labelled with the contested item, each group edge (dashed) with the global
// transaction. An empty graph still renders a valid digraph.
func WaitsForDOT(parts []*TableSnapshot) string {
	var b strings.Builder
	b.WriteString("digraph waitsfor {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=circle];\n")
	id := func(n snapNode) string {
		if len(parts) == 1 {
			return fmt.Sprintf("t%d", n.txn)
		}
		return fmt.Sprintf("p%d_t%d", n.part, n.txn)
	}
	seen := make(map[snapNode]bool)
	node := func(n snapNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		if len(parts) == 1 {
			fmt.Fprintf(&b, "  %s [label=\"T%d\"];\n", id(n), n.txn)
		} else {
			fmt.Fprintf(&b, "  %s [label=\"p%d:T%d\"];\n", id(n), n.part, n.txn)
		}
	}
	groups := groupEdges(parts)
	for p, s := range parts {
		for _, e := range s.Edges {
			node(snapNode{p, e.From})
			node(snapNode{p, e.To})
		}
	}
	for _, e := range groups {
		node(e.to)
	}
	for p, s := range parts {
		for _, e := range s.Edges {
			fmt.Fprintf(&b, "  %s -> %s [label=%q];\n", id(snapNode{p, e.From}), id(snapNode{p, e.To}), e.Item.String())
		}
	}
	for _, e := range groups {
		fmt.Fprintf(&b, "  %s -> %s [style=dashed label=\"g%d\"];\n", id(e.from), id(e.to), e.group)
	}
	b.WriteString("}\n")
	return b.String()
}

// LocksText renders the dumps of the given lock tables, one per partition,
// as text: each table as String does, then the group edges between them.
func LocksText(parts []*TableSnapshot) string {
	if len(parts) == 1 {
		return parts[0].String()
	}
	var b strings.Builder
	for p, s := range parts {
		fmt.Fprintf(&b, "partition %d %s", p, s)
	}
	for _, e := range groupEdges(parts) {
		fmt.Fprintf(&b, "p%d:T%d waits-for p%d:T%d as g%d\n", e.from.part, e.from.txn, e.to.part, e.to.txn, e.group)
	}
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
