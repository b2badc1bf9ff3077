package partition

import (
	"context"
	"fmt"
	"sort"

	"accdb/internal/core"
	"accdb/internal/spi"
	"accdb/internal/wal"
)

// RecoverResult aggregates per-partition crash recovery plus the
// coordinator-level completion pass.
type RecoverResult struct {
	// Partitions holds each engine's own recovery outcome, in partition
	// order: redo applied, local pending transactions compensated.
	Partitions []*core.RecoverResult
	// ForwardDriven lists global transactions whose home transaction had
	// committed: their decision records were closed with a commit mark (and
	// any shot missing from its partition log — unreachable under the
	// protocol's ordering, handled defensively — re-driven).
	ForwardDriven []uint64
	// Undone lists global transactions rolled back: their committed shots
	// were compensated in reverse order and their decision records closed
	// with an abort mark.
	Undone []uint64
}

// Recover restores the Set after a crash. It runs each partition's own
// three-pass recovery first (analysis, redo, local compensation), then
// resolves every open multi-shot decision record found in the partition
// logs:
//
//   - home transaction committed → the global transaction committed (the
//     home commit force is the global commit point; every shot's commit
//     force preceded it). The decision record is closed with TCoordCommit;
//     a shot with no trace in its partition log — impossible under the
//     ordering, but checked — is defensively re-driven from the plan.
//   - otherwise → the global transaction rolls back: every shot that
//     committed and was not already undone is compensated in reverse plan
//     order, with arguments decoded from the shot's own commit-record work
//     area (its runtime state, not the plan's initial arguments), then the
//     decision record is closed with a forced TCoordAbort.
//
// Recover is idempotent: a crash during recovery leaves either more undo
// shots committed (skipped next time via their (global, -i) stamps) or the
// closing record missing (rewritten next time). Routes and undo specs must
// be registered before calling Recover.
func (s *Set) Recover() (*RecoverResult, error) {
	res := &RecoverResult{}
	analyses := make([]*wal.Analysis, len(s.engines))
	for p, eng := range s.engines {
		r, err := eng.RecoverLog(eng.Log())
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
		res.Partitions = append(res.Partitions, r)
		analyses[p] = r.Analysis
	}

	var maxGlobal uint64
	for _, a := range analyses {
		if a.MaxGlobal > maxGlobal {
			maxGlobal = a.MaxGlobal
		}
	}

	for home, a := range analyses {
		for _, g := range sortedKeys(a.Coords) {
			c := a.Coords[g]
			grp := spi.NewGroup(g, nil) // nothing to doom: recovery's shots run under no caller
			shots, err := s.decodePlan(c.Plan)
			if err != nil {
				return nil, fmt.Errorf("partition %d: global %d plan: %w", home, g, err)
			}
			homeTxn := a.ShotTxn(g, 0)
			if c.Committed || (homeTxn != nil && homeTxn.Committed) {
				// Committed global: every shot must be present and committed
				// on its partition. Under a whole-process crash they all are
				// (each shot's commit force preceded the home's); a partial
				// log loss — one partition's log froze while the process kept
				// committing elsewhere — can drop one, so re-drive whatever
				// is missing.
				redriven := false
				for i, sh := range shots {
					if st := analyses[sh.Partition].ShotTxn(g, int32(i+1)); st != nil && st.Committed {
						continue
					}
					if err := s.runShot(context.Background(), grp, int32(i+1), sh); err != nil {
						return nil, fmt.Errorf("partition: re-driving global %d shot %d: %w", g, i+1, err)
					}
					redriven = true
				}
				if c.Open() {
					s.engines[home].Log().Append(wal.Record{Type: wal.TCoordCommit, Txn: g})
				}
				if c.Open() || redriven {
					res.ForwardDriven = append(res.ForwardDriven, g)
				}
				continue
			}
			// Rolled-back (or undecided) global: every committed shot must
			// have a committed undo. The undos of a closed-aborted record were
			// durable before its TCoordAbort force under a whole-process
			// crash; partial log loss is again the exception, and the undo
			// pass below is idempotent either way.
			undone := false
			for i := len(shots) - 1; i >= 0; i-- {
				st := analyses[shots[i].Partition].ShotTxn(g, int32(i+1))
				if st == nil || !st.Committed {
					// Never committed: its partition's own recovery already
					// discarded or compensated whatever it started.
					continue
				}
				if undoSt := analyses[shots[i].Partition].ShotTxn(g, -int32(i+1)); undoSt != nil && undoSt.Committed {
					continue // undone before the crash (or by a prior recovery)
				}
				args := shots[i].Args
				if len(st.WorkArea) > 0 {
					// The shot's commit record preserved its runtime work
					// area (identifiers assigned, quantities actually taken);
					// the undo must see that, not the plan's initial arguments.
					if tt := s.engines[0].Type(shots[i].Type); tt != nil && tt.DecodeArgs != nil {
						dec, derr := tt.DecodeArgs(st.WorkArea)
						if derr != nil {
							return nil, fmt.Errorf("partition: global %d shot %d work area: %w", g, i+1, derr)
						}
						args = dec
					}
				}
				if err := s.undoShot(grp, int32(i+1), shots[i], args); err != nil {
					return nil, fmt.Errorf("partition: recovery undo of global %d shot %d: %w", g, i+1, err)
				}
				undone = true
			}
			if c.Open() {
				s.engines[home].Log().AppendForce(wal.Record{Type: wal.TCoordAbort, Txn: g})
			}
			if c.Open() || undone {
				res.Undone = append(res.Undone, g)
			}
		}
	}

	if cur := s.nextGlobal.Load(); cur < maxGlobal {
		s.nextGlobal.Store(maxGlobal)
	}
	return res, nil
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
