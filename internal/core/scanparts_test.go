package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
)

// regions names inventory partitions by region, one value each.
func regions(rs ...int64) [][]spi.Value {
	parts := make([][]spi.Value, len(rs))
	for i, r := range rs {
		parts[i] = []spi.Value{spi.I64(r)}
	}
	return parts
}

// regionItem is the partition granule of one inventory region.
func regionItem(r int64) spi.Item {
	return spi.PartitionItem("inventory", spi.EncodeKey(spi.I64(r)))
}

// TestScanPartitionsLocksEveryPartitionBeforeReading: at the locked tier a
// multi-partition read takes S on every listed partition before it reads a
// row. While another transaction holds X on the last listed partition the
// visitor is not called — not even for the rows of the first, already
// granted one — and when it first is, every S lock is held.
func TestScanPartitionsLocksEveryPartitionBeforeReading(t *testing.T) {
	for _, mode := range []Mode{ModeACC, ModeBaseline} {
		s := newOpSys(t, WithMode(mode))
		holding, release := make(chan struct{}), make(chan struct{})
		writer := make(chan error, 1)
		go func() {
			writer <- s.eng.Exec(context.Background(), Request{Type: &TxnType{
				Name: "op", ID: s.txn,
				Steps: []Step{{Name: "op", Type: s.step, Body: func(tc *Ctx) error {
					if err := tc.Insert("inventory", spi.Row{spi.I64(2), spi.I64(9), spi.I64(90)}); err != nil {
						return err
					}
					close(holding)
					<-release
					return nil
				}}},
			}})
		}()
		<-holding
		waitsBefore := s.eng.Locks().Stats().Waits
		var released atomic.Bool
		reader := make(chan error, 1)
		visited := 0
		go func() {
			reader <- s.run(t, func(tc *Ctx) error {
				return tc.ScanPartitions("inventory", regions(1, 2), func(spi.Row) error {
					if visited == 0 {
						if !released.Load() {
							t.Errorf("%v: a row was read while the last partition was X-locked", mode)
						}
						for _, r := range []int64{1, 2} {
							if !locksOf(tc).HoldsConventional(tc.txn.info.ID, regionItem(r), spi.ModeS) {
								t.Errorf("%v: first row read before S on region %d", mode, r)
							}
						}
					}
					visited++
					return nil
				})
			})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.eng.Locks().Stats().Waits == waitsBefore {
			if time.Now().After(deadline) {
				t.Fatalf("%v: the reader never waited for the writer's partition lock", mode)
			}
			time.Sleep(time.Millisecond)
		}
		released.Store(true)
		close(release)
		if err := <-writer; err != nil {
			t.Fatalf("%v: writer: %v", mode, err)
		}
		if err := <-reader; err != nil {
			t.Fatalf("%v: reader: %v", mode, err)
		}
		if visited != 11 {
			t.Errorf("%v: visited %d rows, want the 5 + 6 the two regions hold", mode, visited)
		}
	}
}

// TestScanPartitionsRefusesOutOfOrder: partitions out of ascending order, a
// repeated partition and a partition not named by exactly its partition
// columns are refused before any lock is taken, at every tier; UpdateWhere
// refuses a partition so misnamed the same way.
func TestScanPartitionsRefusesOutOfOrder(t *testing.T) {
	bad := map[string][][]spi.Value{
		"unsorted":            regions(2, 1),
		"repeated":            regions(1, 1, 2),
		"too few values":      {{}},
		"too many values":     {{spi.I64(1), spi.I64(1)}},
		"a kind out of order": {{spi.Str("1")}, {spi.I64(2)}},
	}
	for _, tier := range []ReadTier{TierLocked, TierSnapshot} {
		s := newOpSys(t)
		err := s.runAt(t, tier, func(tc *Ctx) error {
			for name, parts := range bad {
				before := s.eng.Locks().Stats().Acquisitions
				visited := 0
				if err := tc.ScanPartitions("inventory", parts, func(spi.Row) error { visited++; return nil }); err == nil {
					t.Errorf("%v: %s partitions accepted", tier, name)
				}
				if n := s.eng.Locks().Stats().Acquisitions - before; n != 0 || visited != 0 {
					t.Errorf("%v: refused %s partitions took %d locks and read %d rows", tier, name, n, visited)
				}
			}
			if tier == TierLocked {
				before := s.eng.Locks().Stats().Acquisitions
				if err := tc.UpdateWhere("inventory", bad["too many values"][0], func(row spi.Row) (spi.Row, error) {
					return row, nil
				}); err == nil {
					t.Error("UpdateWhere of a misnamed partition accepted")
				}
				if n := s.eng.Locks().Stats().Acquisitions - before; n != 0 {
					t.Errorf("refused UpdateWhere took %d locks", n)
				}
			}
			if held := locksOf(tc).HeldItems(tc.txn.info); len(held) != 0 {
				t.Errorf("%v: refused reads left locks: %v", tier, held)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
	}
}

// TestScanPartitionsSameAtEveryTier: the locked and snapshot
// tiers visit the same rows in the same order — partition by partition, each
// in key order, an empty partition contributing none — and at each an
// ErrStopScan ends the whole read, not just its partition, while any other
// visitor error comes back.
func TestScanPartitionsSameAtEveryTier(t *testing.T) {
	parts := regions(1, 2, 7)
	var want [][2]int64
	for r := int64(1); r <= 2; r++ {
		for sku := int64(1); sku <= 5; sku++ {
			want = append(want, [2]int64{r, sku})
		}
	}
	for _, tier := range []ReadTier{TierLocked, TierSnapshot} {
		s := newOpSys(t)
		err := s.runAt(t, tier, func(tc *Ctx) error {
			var got [][2]int64
			err := tc.ScanPartitions("inventory", parts, func(row spi.Row) error {
				got = append(got, [2]int64{row[0].Int64(), row[1].Int64()})
				return nil
			})
			if err != nil {
				return err
			}
			if !slices.Equal(got, want) {
				t.Errorf("%v: visited %v, want %v", tier, got, want)
			}
			n := 0
			err = tc.ScanPartitions("inventory", parts, func(spi.Row) error {
				if n++; n == 3 {
					return ErrStopScan
				}
				return nil
			})
			if err != nil || n != 3 {
				t.Errorf("%v: ErrStopScan on row 3 gave %v after %d rows, want nil after 3", tier, err, n)
			}
			sentinel := errors.New("enough")
			n = 0
			err = tc.ScanPartitions("inventory", parts, func(spi.Row) error { n++; return sentinel })
			if !errors.Is(err, sentinel) || n != 1 {
				t.Errorf("%v: visitor error gave %v after %d rows, want it back after 1", tier, err, n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
	}
}

// TestScanPartitionsIsOneStatement: on the simulated testbed one call is one
// statement, for one partition and for ten, at every tier — the service time
// the paper's model charges a join — and ScanPartition is its one-partition
// case.
func TestScanPartitionsIsOneStatement(t *testing.T) {
	env := NewEnv(1, 0, 0)
	s := newOpSys(t, WithEnv(env))
	for r := int64(3); r <= 10; r++ {
		if err := s.inv.Insert(spi.Row{spi.I64(r), spi.I64(1), spi.I64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	s.inv.ResetVersions()
	ten := regions(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, tier := range []ReadTier{TierLocked, TierSnapshot} {
		for _, c := range []struct {
			name string
			rows int
			read func(tc *Ctx, visit func(spi.Row) error) error
		}{
			{"ScanPartition", 5, func(tc *Ctx, visit func(spi.Row) error) error {
				return tc.ScanPartition("inventory", []spi.Value{spi.I64(1)}, visit)
			}},
			{"ScanPartitions of 1", 5, func(tc *Ctx, visit func(spi.Row) error) error {
				return tc.ScanPartitions("inventory", ten[:1], visit)
			}},
			{"ScanPartitions of 10", 18, func(tc *Ctx, visit func(spi.Row) error) error {
				return tc.ScanPartitions("inventory", ten, visit)
			}},
		} {
			var stmts uint64
			visited := 0
			err := s.runAt(t, tier, func(tc *Ctx) error {
				before := env.Statements()
				err := c.read(tc, func(spi.Row) error { visited++; return nil })
				stmts = env.Statements() - before
				return err
			})
			if err != nil {
				t.Fatalf("%v %s: %v", tier, c.name, err)
			}
			if stmts != 1 || visited != c.rows {
				t.Errorf("%v %s: %d statements, %d rows; want 1 statement, %d rows", tier, c.name, stmts, visited, c.rows)
			}
		}
	}
}

// TestScanPartitionsLocksEncodedKeys: over string partition columns, one of
// them holding the escaped NUL, the keys ScanPartitions walks out of its one
// buffer are the items the encoding of each partition's values gives: it
// holds S on each, reads each, and records each in the history.
func TestScanPartitionsLocksEncodedKeys(t *testing.T) {
	db := NewDB()
	tab := db.MustCreateTable(spi.MustSchema("zoned", []spi.Column{
		{Name: "region", Kind: spi.KindString},
		{Name: "zone", Kind: spi.KindInt},
		{Name: "id", Kind: spi.KindInt},
	}, "region", "zone", "id"), "region", "zone")
	parts := [][]spi.Value{
		{spi.Str("east"), spi.I64(2)}, {spi.Str("n\x00rth"), spi.I64(7)}, {spi.Str("n\x00rth"), spi.I64(8)}, {spi.Str("south"), spi.I64(1)},
	}
	for _, p := range parts {
		if err := tab.Insert(spi.Row{p[0], p[1], spi.I64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	b := interference.NewBuilder()
	txn, step := b.TxnType("op", 1), b.StepType("op")
	b.AllowInterleaveEverywhere(step, txn)
	eng := New(db, b.Build(), WithWaitTimeout(5*time.Second), WithRecordHistory(true))
	err := eng.Exec(context.Background(), Request{Type: &TxnType{
		Name: "op", ID: txn,
		Steps: []Step{{Name: "op", Type: step, Body: func(tc *Ctx) error {
			n := 0
			if err := tc.ScanPartitions("zoned", parts, func(spi.Row) error { n++; return nil }); err != nil {
				return err
			}
			if n != len(parts) {
				t.Errorf("visited %d rows, want %d", n, len(parts))
			}
			for _, p := range parts {
				item := spi.PartitionItem("zoned", spi.EncodeKey(p...))
				if !locksOf(tc).HoldsConventional(tc.txn.info.ID, item, spi.ModeS) {
					t.Errorf("%v not held in S", item)
				}
			}
			return nil
		}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var recorded []spi.Key
	for _, a := range eng.History().Accesses {
		recorded = append(recorded, a.PK)
	}
	var want []spi.Key
	for _, p := range parts {
		want = append(want, spi.EncodeKey(p...))
	}
	if !slices.Equal(recorded, want) {
		t.Errorf("history recorded %q, want %q", recorded, want)
	}
}
