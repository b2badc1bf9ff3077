package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/spi"
)

// TestNewOrderWaitsForDistrictAfterLockFreeReads: NO1 makes its three
// lock-free reads — w_tax, c_discount, and every item price in one statement —
// before it asks for the district row, so while another transaction holds X
// on that row a new-order on core.Env waits after exactly three statements.
// Once the row is free the order commits with every line priced, a repeated
// item on each of its lines.
func TestNewOrderWaitsForDistrictAfterLockFreeReads(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		env := core.NewEnv(1, 0, 0)
		eng, _ := testSystem(t, mode, smallScale(), core.WithEnv(env))
		const did = 2
		holding, release := make(chan struct{}), make(chan struct{})
		held := make(chan error, 1)
		go func() {
			held <- eng.RunLegacy("hold", func(tc *core.Ctx) error {
				err := tc.Update(TDistrict, []spi.Value{i64(1), i64(did)}, func(spi.Row) error { return nil })
				close(holding)
				<-release
				return err
			})
		}()
		<-holding
		waits, before := eng.Locks().Stats().Waits, env.Statements()
		a := &NewOrderArgs{
			WID: 1, DID: did, CID: 5,
			Lines: []OrderLineReq{
				{ItemID: 9, SupplyW: 1, Quantity: 3},
				{ItemID: 4, SupplyW: 1, Quantity: 2},
				{ItemID: 9, SupplyW: 1, Quantity: 5},
			},
			Filled: make([]int64, 3), Amounts: make([]int64, 3),
		}
		done := make(chan error, 1)
		go func() { done <- eng.Run("new_order", a) }()
		deadline := time.Now().Add(5 * time.Second)
		for eng.Locks().Stats().Waits == waits {
			if time.Now().After(deadline) {
				t.Fatalf("%v: the new-order never waited for the district row", mode)
			}
			time.Sleep(time.Millisecond)
		}
		if got := env.Statements() - before; got != 3 {
			t.Errorf("%v: new-order waited for the district after %d statements, want 3", mode, got)
		}
		close(release)
		if err := <-held; err != nil {
			t.Fatalf("%v: holder: %v", mode, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%v: new-order: %v", mode, err)
		}
		for i, l := range a.Lines {
			item, err := eng.DB().Table(TItem).Get(spi.EncodeKey(i64(l.ItemID)))
			if err != nil {
				t.Fatal(err)
			}
			line, err := eng.DB().Table(TOrderLine).Get(spi.EncodeKey(i64(1), i64(did), i64(a.ONum), i64(int64(i+1))))
			if err != nil {
				t.Fatalf("%v: line %d: %v", mode, i+1, err)
			}
			want := l.Quantity * item[colIPrice].Int64()
			if a.Amounts[i] != want || line[colOLAmount].Int64() != want {
				t.Errorf("%v: line %d: amount %d, ol_amount %d, want %d", mode, i+1, a.Amounts[i], line[colOLAmount].Int64(), want)
			}
		}
	}
}

// TestUnusedItemAbortsInItsLineStep: an unused item number, which NO1's price
// read leaves at amount 0, aborts the line step that names it before the step
// makes a statement, so under the baseline an order's statements on core.Env
// are NO1's six and one per line before it, the line's stock update: the lines
// themselves are entered by NOF, which such an order never reaches. Under the ACC the line
// steps before it completed: an order whose last item is unused is
// compensated with its earlier lines restocked, and one whose first item is
// unused is compensated for NO1 alone. Under the baseline both abort without
// compensation. Every way, no stock row moves and no order or line stays.
func TestUnusedItemAbortsInItsLineStep(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		env := core.NewEnv(1, 0, 0)
		scale := smallScale()
		eng, w := testSystem(t, mode, scale, core.WithEnv(env))
		r := rand.New(rand.NewSource(7))
		for _, unused := range []string{"last", "first"} {
			a := w.NewOrderArgs(r)
			k := len(a.Lines) - 1 // the unused line, and the lines before it
			if unused == "first" {
				k = 0
			}
			a.Lines[k].ItemID = int64(scale.Items) + 1
			stock := eng.DB().Table(TStock)
			before := map[spi.Key]spi.Row{}
			for _, l := range a.Lines {
				pk := spi.EncodeKey(i64(l.SupplyW), i64(l.ItemID))
				if row, err := stock.Get(pk); err == nil {
					before[pk] = row
				}
			}
			stmts := env.Statements()
			err := eng.Run("new_order", a)
			stmts = env.Statements() - stmts
			if mode == core.ModeACC {
				if !core.IsCompensated(err) {
					t.Errorf("%v, %s item unused: %v, want a compensated rollback", mode, unused, err)
				}
			} else {
				if !errors.Is(err, core.ErrUserAbort) || core.IsCompensated(err) {
					t.Errorf("%v, %s item unused: %v, want an abort without compensation", mode, unused, err)
				}
				if want := uint64(6 + k); stmts != want {
					t.Errorf("%v, %s item unused: %d statements, want %d (6 + 1 per line before it)", mode, unused, stmts, want)
				}
			}
			for pk, row := range before {
				after, _ := stock.Get(pk)
				for _, c := range []int{colSQty, colSYTD, colSOrderCnt} {
					if !after[c].Equal(row[c]) {
						t.Errorf("%v, %s item unused: stock %q column %d %v, was %v", mode, unused, pk, c, after[c], row[c])
					}
				}
			}
			if _, err := eng.DB().Table(TOrders).Get(spi.EncodeKey(i64(a.WID), i64(a.DID), i64(a.ONum))); !errors.Is(err, spi.ErrNotFound) {
				t.Errorf("%v, %s item unused: order %d stayed (%v)", mode, unused, a.ONum, err)
			}
			lines := 0
			eng.DB().Table(TOrderLine).IndexScan(core.PartIndex, []spi.Value{i64(a.WID), i64(a.DID), i64(a.ONum)},
				func(spi.Key, spi.Row) bool { lines++; return true })
			if lines != 0 {
				t.Errorf("%v, %s item unused: %d lines of order %d stayed", mode, unused, lines, a.ONum)
			}
		}
	}
}

// TestQuantityOutOfRangeAborts: a line quantity outside TPC-C's 1–10 aborts
// the new-order before its first statement, under both schedulers: a user
// abort, not a compensation, with no statement charged and no row changed —
// the district's next order number and every stock row included.
func TestQuantityOutOfRangeAborts(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		env := core.NewEnv(1, 0, 0)
		eng, w := testSystem(t, mode, smallScale(), core.WithEnv(env))
		r := rand.New(rand.NewSource(7))
		for _, q := range []int64{0, -2, 11} {
			a := w.NewOrderArgs(r)
			a.InvalidItem = false
			a.Lines[len(a.Lines)-1].ItemID = 1
			a.Lines[len(a.Lines)-1].Quantity = q
			before := dumpTables(eng.DB())
			stmts := env.Statements()
			err := eng.Run("new_order", a)
			if !errors.Is(err, core.ErrUserAbort) || core.IsCompensated(err) {
				t.Errorf("%v, quantity %d: %v, want an abort without compensation", mode, q, err)
			}
			if n := env.Statements() - stmts; n != 0 {
				t.Errorf("%v, quantity %d: %d statements before the abort, want 0", mode, q, n)
			}
			if !reflect.DeepEqual(dumpTables(eng.DB()), before) {
				t.Errorf("%v, quantity %d: the abort changed the database", mode, q)
			}
		}
	}
}

// TestNewOrderEntersItsLinesInNOF: a new-order's lines go in at NOF, in one
// statement, and not before. While another transaction holds X on the order's
// order_line partition, a new-order waits at NOF — after its last line step
// under the ACC — with its order row entered, stock taken for every line and
// no order_line row yet; once the partition is free it commits every line.
func TestNewOrderEntersItsLinesInNOF(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		eng, _ := testSystem(t, mode, smallScale())
		db := eng.DB()
		const did = 3
		drow, err := db.Table(TDistrict).Get(spi.EncodeKey(i64(1), i64(did)))
		if err != nil {
			t.Fatal(err)
		}
		o := drow[colDNext].Int64() // the number the new-order will take
		part := []spi.Value{i64(1), i64(did), i64(o)}
		holding, release := make(chan struct{}), make(chan struct{})
		held := make(chan error, 1)
		go func() {
			held <- eng.RunLegacy("hold", func(tc *core.Ctx) error {
				err := tc.UpdateWhere(TOrderLine, part, func(spi.Row) (spi.Row, error) { return nil, nil })
				close(holding)
				<-release
				return err
			})
		}()
		<-holding
		a := &NewOrderArgs{
			WID: 1, DID: did, CID: 5,
			Lines: []OrderLineReq{
				{ItemID: 9, SupplyW: 1, Quantity: 3},
				{ItemID: 4, SupplyW: 1, Quantity: 2},
				{ItemID: 17, SupplyW: 1, Quantity: 5},
			},
			Filled: make([]int64, 3), Amounts: make([]int64, 3),
		}
		stock := map[int64]int64{}
		for _, l := range a.Lines {
			row, err := db.Table(TStock).Get(spi.EncodeKey(i64(1), i64(l.ItemID)))
			if err != nil {
				t.Fatal(err)
			}
			stock[l.ItemID] = row[colSOrderCnt].Int64()
		}
		waits := eng.Locks().Stats().Waits
		done := make(chan error, 1)
		go func() { done <- eng.Run("new_order", a) }()
		deadline := time.Now().Add(5 * time.Second)
		for eng.Locks().Stats().Waits == waits {
			if time.Now().After(deadline) {
				t.Fatalf("%v: the new-order never waited for its order_line partition", mode)
			}
			time.Sleep(time.Millisecond)
		}
		if !db.Table(TOrders).Exists(spi.EncodeKey(i64(1), i64(did), i64(o))) {
			t.Errorf("%v: order %d not entered before NOF", mode, o)
		}
		for _, l := range a.Lines {
			row, _ := db.Table(TStock).Get(spi.EncodeKey(i64(1), i64(l.ItemID)))
			if got := row[colSOrderCnt].Int64(); got != stock[l.ItemID]+1 {
				t.Errorf("%v: item %d: s_order_cnt %d before NOF, want %d", mode, l.ItemID, got, stock[l.ItemID]+1)
			}
		}
		lines := 0
		db.Table(TOrderLine).IndexScan(core.PartIndex, part, func(spi.Key, spi.Row) bool { lines++; return true })
		if lines != 0 {
			t.Errorf("%v: %d order_line rows before NOF, want 0", mode, lines)
		}
		close(release)
		if err := <-held; err != nil {
			t.Fatalf("%v: holder: %v", mode, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%v: new-order: %v", mode, err)
		}
		if a.ONum != o {
			t.Fatalf("%v: new-order took number %d, want %d", mode, a.ONum, o)
		}
		db.Table(TOrderLine).IndexScan(core.PartIndex, part, func(spi.Key, spi.Row) bool { lines++; return true })
		if lines != len(a.Lines) {
			t.Errorf("%v: %d order_line rows after commit, want %d", mode, lines, len(a.Lines))
		}
	}
}

// TestFailFinalCompensatesWithoutLineDeletes: a new-order that rolls back in
// NOF, after every line step took its stock, is compensated under the ACC by
// restocking its lines and removing its order and queue entry. It never wrote
// an order_line row, so neither its steps nor its compensation touch the
// order_line table, and the database is as before but for the district's
// order number, which stays a hole.
func TestFailFinalCompensatesWithoutLineDeletes(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale(), core.WithRecordHistory(true))
	r := rand.New(rand.NewSource(11))
	a := w.NewOrderArgs(r)
	a.InvalidItem = false
	for i := range a.Lines {
		a.Lines[i].ItemID = int64(i + 1)
		a.Lines[i].SupplyW = a.WID
	}
	a.FailFinal = true
	before := dumpTables(eng.DB())
	if err := eng.Run("new_order", a); !core.IsCompensated(err) {
		t.Fatalf("FailFinal new-order: %v, want a compensated rollback", err)
	}
	for _, acc := range eng.History().Accesses {
		if acc.Table == TOrderLine && acc.Write {
			t.Errorf("the rolled-back new-order wrote order_line %q", acc.PK)
		}
	}
	after := dumpTables(eng.DB())
	district := fmt.Sprintf("%s/%x", TDistrict, spi.EncodeKey(i64(a.WID), i64(a.DID)))
	for key, row := range before {
		if key != district && after[key] != row {
			t.Errorf("row %s changed by the rolled-back new-order", key)
		}
	}
	if len(after) != len(before) {
		t.Errorf("%d rows after the rolled-back new-order, %d before", len(after), len(before))
	}
	w.addHole(a.WID, a.DID, a.ONum)
	checkAll(t, eng, w)
}
