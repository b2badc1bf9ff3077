package lock

import (
	"accdb/internal/spi"
	"sort"
)

// Lock-table introspection. Snapshot walks the table one shard latch at a
// time (preserving the single-latch invariant) and returns a structural dump:
// every held entry — conventional modes and the paper's A/D/C kinds — every
// wait queue, and the waits-for edges recomputed exactly as deadlock
// detection sees them. The dump is advisory: shards are observed at slightly
// different instants, which is the same consistency deadlock detection
// itself settles for. The dump's data types and renderers live in the SPI
// (spi/locksnap.go) so any LockService implementation can produce them.

// Snapshot dumps the lock table's current structure. It takes each shard
// latch in turn (never two at once) and recomputes waits-for edges with the
// same blockersLocked pass deadlock detection uses, so the dump shows the
// graph as the detector would see it.
func (m *Manager) Snapshot() *spi.TableSnapshot {
	snap := &spi.TableSnapshot{}
	for _, sh := range m.shards {
		sh.mu.Lock()
		var ss spi.ShardSnapshot
		ss.Index = int(sh.idx)
		for _, head := range &sh.buckets {
			for st := head; st != nil; st = st.next {
				is := spi.ItemSnapshot{Item: st.item}
				for _, g := range st.grants {
					is.Grants = appendGrant(is.Grants, g)
				}
				for _, w := range st.queue {
					is.Queue = append(is.Queue, spi.WaitSnapshot{
						Txn:          w.txn.ID,
						Mode:         w.req.Mode.String(),
						Compensating: w.req.Compensating,
						Conversion:   w.conv,
					})
					for _, b := range m.blockersLocked(w) {
						snap.Edges = append(snap.Edges, spi.WaitEdge{From: w.txn.ID, To: b.ID,
							FromGroup: w.txn.Group.ID, ToGroup: b.Group.ID, Item: st.item})
					}
				}
				ss.Items = append(ss.Items, is)
			}
		}
		sh.mu.Unlock()
		if len(ss.Items) > 0 {
			// Chains are in hash order; sort for stable output.
			sort.Slice(ss.Items, func(i, j int) bool {
				a, b := ss.Items[i].Item, ss.Items[j].Item
				if a.Table != b.Table {
					return a.Table < b.Table
				}
				if a.Level != b.Level {
					return a.Level < b.Level
				}
				return string(a.Key) < string(b.Key)
			})
			snap.Shards = append(snap.Shards, ss)
		}
	}
	sort.Slice(snap.Edges, func(i, j int) bool {
		if snap.Edges[i].From != snap.Edges[j].From {
			return snap.Edges[i].From < snap.Edges[j].From
		}
		return snap.Edges[i].To < snap.Edges[j].To
	})
	return snap
}

// appendGrant renders g; a mark that carries a reservation renders as the D
// grant and the C grant it stands for.
func appendGrant(out []spi.GrantSnapshot, g *grant) []spi.GrantSnapshot {
	gs := spi.GrantSnapshot{Txn: g.txn.ID, Assertion: -1}
	switch g.kind {
	case kindConventional:
		gs.Kind = "lock"
		gs.Mode = g.mode.String()
	case kindAssertional:
		gs.Kind = "A"
		gs.Mode = "A"
		gs.Assertion = int(g.assertion)
	case kindExposure:
		gs.Kind = tagExposure
		gs.Mode = tagExposure
		if g.txn.Comp != spi.NoStep {
			out = append(out, gs)
			gs.Kind = tagReservation
			gs.Mode = tagReservation
		}
	case kindRetired:
		gs.Kind = "retired"
		gs.Mode = g.mode.String()
		gs.LSN = g.lsn
	}
	return append(out, gs)
}
