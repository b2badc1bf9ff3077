package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/sim"
	"accdb/internal/spi"
)

// fixedSys is a catalog whose name and price are declared fixed, beside a
// stock count that steps update, so its row set is fixed too: the shape
// TPC-C's warehouse and customer tables have. The catalog is partitioned by
// region and has a by_region index, so every write path has a way in. Beside
// it is a tariff whose every column is fixed, TPC-C's item table's shape,
// partitioned by zone.
type fixedSys struct {
	eng *Engine
	cat spi.Table
	txn interference.TxnTypeID
	stp interference.StepTypeID
}

const (
	catName  = 2 // fixed
	catPrice = 3 // fixed
	catStock = 4
)

func newFixedSys(t *testing.T, opts ...Option) *fixedSys {
	t.Helper()
	db := NewDB()
	cat, err := db.CreateTable(spi.MustSchema("catalog", []spi.Column{
		{Name: "region", Kind: spi.KindInt},
		{Name: "sku", Kind: spi.KindInt},
		{Name: "name", Kind: spi.KindString, Fixed: true},
		{Name: "price", Kind: spi.KindFloat, Fixed: true},
		{Name: "stock", Kind: spi.KindInt},
	}, "region", "sku"), "region")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(spi.IndexDef{Name: "by_region", Columns: []string{"region"}}); err != nil {
		t.Fatal(err)
	}
	for sku := int64(1); sku <= 3; sku++ {
		// The loader writes through the store: a fixed row set is loaded, not
		// inserted by transactions.
		if err := cat.Insert(spi.Row{spi.I64(1), spi.I64(sku), spi.Str("widget"), spi.F64(float64(sku) / 2), spi.I64(10)}); err != nil {
			t.Fatal(err)
		}
	}
	cat.ResetVersions()
	tariff, err := db.CreateTable(spi.MustSchema("tariff", []spi.Column{
		{Name: "zone", Kind: spi.KindInt, Fixed: true},
		{Name: "code", Kind: spi.KindInt, Fixed: true},
		{Name: "rate", Kind: spi.KindInt, Fixed: true},
	}, "zone", "code"), "zone")
	if err != nil {
		t.Fatal(err)
	}
	for zone := int64(1); zone <= 2; zone++ {
		for code := int64(1); code <= 3; code++ {
			if err := tariff.Insert(spi.Row{spi.I64(zone), spi.I64(code), spi.I64(10*zone + code)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tariff.ResetVersions()
	b := interference.NewBuilder()
	s := &fixedSys{cat: cat, txn: b.TxnType("op", 1), stp: b.StepType("op")}
	b.AllowInterleaveEverywhere(s.stp, s.txn)
	s.eng = New(db, b.Build(), append([]Option{WithWaitTimeout(5 * time.Second)}, opts...)...)
	return s
}

func (s *fixedSys) run(tier ReadTier, body func(tc *Ctx) error) error {
	return s.eng.Exec(context.Background(), Request{Type: &TxnType{
		Name: "op", ID: s.txn,
		Steps: []Step{{Name: "op", Type: s.stp, Body: body}},
	}, Tier: tier})
}

// TestFixedRowsRefuseWrites: a table that declares a fixed column has a fixed
// row set, so every engine path that inserts or deletes a row refuses it —
// Insert, Delete, ClaimMin and an UpdateWhere delete — and the store refuses
// an Update that changes a fixed column. An Update of the other columns, and
// an UpdateWhere that only updates, go through.
func TestFixedRowsRefuseWrites(t *testing.T) {
	s := newFixedSys(t)
	refused := map[string]func(tc *Ctx) error{
		"Insert": func(tc *Ctx) error {
			return tc.Insert("catalog", spi.Row{spi.I64(1), spi.I64(9), spi.Str("new"), spi.F64(1), spi.I64(1)})
		},
		"Delete": func(tc *Ctx) error { return tc.Delete("catalog", spi.I64(1), spi.I64(2)) },
		"ClaimMin": func(tc *Ctx) error {
			_, err := tc.ClaimMin("catalog", "by_region", []spi.Value{spi.I64(1)})
			return err
		},
		"UpdateWhere delete": func(tc *Ctx) error {
			return tc.UpdateWhere("catalog", []spi.Value{spi.I64(1)}, func(spi.Row) (spi.Row, error) {
				return nil, ErrDeleteRow
			})
		},
		"Update of a fixed column": func(tc *Ctx) error {
			return tc.Update("catalog", []spi.Value{spi.I64(1), spi.I64(2)}, func(row spi.Row) error {
				row[catPrice] = spi.F64(9)
				return nil
			})
		},
	}
	for name, op := range refused {
		var got error
		err := s.run(TierLocked, func(tc *Ctx) error {
			got = op(tc)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !errors.Is(got, spi.ErrFixed) {
			t.Errorf("%s on a fixed row set: %v, want ErrFixed", name, got)
		}
	}
	if n := s.cat.Len(); n != 3 {
		t.Fatalf("refused writes changed the row set: %d rows", n)
	}
	err := s.run(TierLocked, func(tc *Ctx) error {
		if err := tc.Update("catalog", []spi.Value{spi.I64(1), spi.I64(2)}, func(row spi.Row) error {
			row[catStock] = spi.I64(7)
			return nil
		}); err != nil {
			return err
		}
		return tc.UpdateWhere("catalog", []spi.Value{spi.I64(1)}, func(row spi.Row) (spi.Row, error) {
			row[catStock] = spi.I64(row[catStock].Int64() + 1)
			return row, nil
		})
	})
	if err != nil {
		t.Fatalf("updating an unfixed column: %v", err)
	}
	if row, _ := s.cat.Get(spi.EncodeKey(spi.I64(1), spi.I64(2))); row[catStock].Int64() != 8 {
		t.Fatalf("stock = %v, want 8", row[catStock])
	}
}

// TestGetColsFixedTakesNoLock: a projecting read of fixed columns alone
// takes no lock — no table intent, no row S — and leaves no history record;
// one that names an unfixed column locks and records exactly as Get does.
// Both are one statement.
func TestGetColsFixedTakesNoLock(t *testing.T) {
	for _, mode := range []Mode{ModeACC, ModeBaseline} {
		s := newFixedSys(t, WithMode(mode), WithRecordHistory(true))
		var fixedHeld, mixedHeld, getHeld int
		var acqFixed, acqMixed, acqGet uint64
		var stmtsFixed, stmtsMixed int
		var got [2]spi.Value
		err := s.run(TierLocked, func(tc *Ctx) error {
			before := s.eng.Locks().Stats().Acquisitions
			if err := tc.GetCols("catalog", []int{catPrice, catName}, got[:], spi.I64(1), spi.I64(2)); err != nil {
				return err
			}
			acqFixed = s.eng.Locks().Stats().Acquisitions - before
			fixedHeld, stmtsFixed = len(locksOf(tc).HeldItems(tc.txn.info)), tc.stmts
			before = s.eng.Locks().Stats().Acquisitions
			if err := tc.GetCols("catalog", []int{catStock}, got[:1], spi.I64(1), spi.I64(2)); err != nil {
				return err
			}
			acqMixed = s.eng.Locks().Stats().Acquisitions - before
			mixedHeld, stmtsMixed = len(locksOf(tc).HeldItems(tc.txn.info)), tc.stmts-stmtsFixed
			before = s.eng.Locks().Stats().Acquisitions
			if _, err := tc.Get("catalog", spi.I64(1), spi.I64(3)); err != nil {
				return err
			}
			acqGet = s.eng.Locks().Stats().Acquisitions - before
			getHeld = len(locksOf(tc).HeldItems(tc.txn.info)) - mixedHeld
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got[1].Text() != "widget" {
			t.Errorf("%v: GetCols name = %v", mode, got[1])
		}
		if acqFixed != 0 || fixedHeld != 0 {
			t.Errorf("%v: fixed-column read took %d locks, holds %d items; want none", mode, acqFixed, fixedHeld)
		}
		// The partition granule is the third item of the hierarchy.
		if acqMixed != 3 || acqGet != 3 || mixedHeld != 3 || getHeld != 1 {
			t.Errorf("%v: unfixed GetCols took %d locks (holds %d), Get %d (holds %d more); want 3 (3) as Get, 3 (1)",
				mode, acqMixed, mixedHeld, acqGet, getHeld)
		}
		if stmtsFixed != 1 || stmtsMixed != 1 {
			t.Errorf("%v: GetCols ran %d and %d statements, want one each", mode, stmtsFixed, stmtsMixed)
		}
		recorded := map[spi.Key]bool{}
		for _, a := range s.eng.History().Accesses {
			recorded[a.PK] = true
		}
		if len(recorded) != 2 || !recorded[spi.EncodeKey(spi.I64(1), spi.I64(3))] {
			t.Errorf("%v: history recorded %v, want only the two locked reads", mode, s.eng.History().Accesses)
		}
	}
}

// TestGetColsSameAtEveryTier: a projecting read returns the same values at
// the locked tier, lock-free, as at the snapshot and the other versioned
// tiers, for fixed and unfixed columns alike, and reports a missing row as
// Get does.
func TestGetColsSameAtEveryTier(t *testing.T) {
	s := newFixedSys(t)
	cols := []int{catName, catPrice, catStock}
	want := map[int64][3]spi.Value{}
	for sku := int64(1); sku <= 3; sku++ {
		row, _ := s.cat.Get(spi.EncodeKey(spi.I64(1), spi.I64(sku)))
		want[sku] = [3]spi.Value{row[catName], row[catPrice], row[catStock]}
	}
	for _, tier := range []ReadTier{TierLocked, TierSnapshot, TierReadCommitted, TierASAP} {
		err := s.run(tier, func(tc *Ctx) error {
			for sku := int64(1); sku <= 3; sku++ {
				var fixed [2]spi.Value
				if err := tc.GetCols("catalog", cols[:2], fixed[:], spi.I64(1), spi.I64(sku)); err != nil {
					return err
				}
				var all [3]spi.Value
				if err := tc.GetCols("catalog", cols, all[:], spi.I64(1), spi.I64(sku)); err != nil {
					return err
				}
				w := want[sku]
				if !fixed[0].Equal(w[0]) || !fixed[1].Equal(w[1]) || all != w {
					t.Errorf("tier %v sku %d: GetCols = %v / %v, want %v", tier, sku, fixed, all, w)
				}
			}
			var v [1]spi.Value
			if err := tc.GetCols("catalog", cols[1:2], v[:], spi.I64(1), spi.I64(9)); !errors.Is(err, spi.ErrNotFound) {
				t.Errorf("tier %v: missing row: %v, want ErrNotFound", tier, err)
			}
			if err := tc.GetCols("catalog", cols, v[:], spi.I64(1), spi.I64(1)); err == nil {
				t.Errorf("tier %v: three columns into one value accepted", tier)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
	}
}

// TestGetManyAllFixedTakesNoLock: a GetMany on a table whose every column is
// fixed takes no lock, conventional or assertional, and leaves no history
// record, under both schedulers — repeated and missing keys included — and is
// one statement on sim.Env. It still refuses keys out of ascending order. (The
// tariff's keys have the inventory's shape, so invKeys encodes them.) A
// GetMany on a table with an unfixed column locks and records as before: IS
// on the table, then IS on the partition and S on the row of each key.
func TestGetManyAllFixedTakesNoLock(t *testing.T) {
	for _, mode := range []Mode{ModeACC, ModeBaseline} {
		env := sim.NewEnv(1, 0, 0)
		s := newFixedSys(t, WithMode(mode), WithRecordHistory(true), WithEnv(env))
		var acqFixed, acqMixed uint64
		var heldFixed, stmtsFixed int
		var rates []int64
		err := s.run(TierLocked, func(tc *Ctx) error {
			before, stmts := s.eng.Locks().Stats().Acquisitions, env.Statements()
			err := tc.GetMany("tariff", invKeys([2]int64{1, 2}, [2]int64{1, 2}, [2]int64{1, 9}, [2]int64{2, 3}),
				func(row spi.Row) error {
					rates = append(rates, row[2].Int64())
					return nil
				})
			if err != nil {
				return err
			}
			acqFixed, stmtsFixed = s.eng.Locks().Stats().Acquisitions-before, int(env.Statements()-stmts)
			heldFixed = len(locksOf(tc).HeldItems(tc.txn.info))
			if err := tc.GetMany("tariff", invKeys([2]int64{2, 1}, [2]int64{1, 1}), func(spi.Row) error { return nil }); err == nil {
				t.Errorf("%v: GetMany on the tariff accepted keys out of order", mode)
			}
			before = s.eng.Locks().Stats().Acquisitions
			if err := tc.GetMany("catalog", invKeys([2]int64{1, 1}, [2]int64{1, 2}), func(spi.Row) error { return nil }); err != nil {
				return err
			}
			acqMixed = s.eng.Locks().Stats().Acquisitions - before
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !slices.Equal(rates, []int64{12, 12, 23}) {
			t.Errorf("%v: GetMany on the tariff visited rates %v, want [12 12 23]", mode, rates)
		}
		if acqFixed != 0 || heldFixed != 0 || stmtsFixed != 1 {
			t.Errorf("%v: GetMany on an all-fixed table took %d locks, holds %d items, ran %d statements; want 0, 0, 1",
				mode, acqFixed, heldFixed, stmtsFixed)
		}
		if acqMixed != 5 {
			t.Errorf("%v: GetMany of 2 catalog keys took %d locks, want 5", mode, acqMixed)
		}
		tables := map[string]int{}
		for _, a := range s.eng.History().Accesses {
			tables[a.Table]++
		}
		if tables["tariff"] != 0 || tables["catalog"] != 2 {
			t.Errorf("%v: history recorded %v accesses by table, want only the 2 catalog reads", mode, tables)
		}
	}
}
