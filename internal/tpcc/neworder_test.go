package tpcc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/sim"
	"accdb/internal/spi"
)

// TestNewOrderWaitsForDistrictAfterLockFreeReads: NO1 makes its three
// lock-free reads — w_tax, c_discount, and every item price in one statement —
// before it asks for the district row, so while another transaction holds X
// on that row a new-order on sim.Env waits after exactly three statements.
// Once the row is free the order commits with every line priced, a repeated
// item on each of its lines.
func TestNewOrderWaitsForDistrictAfterLockFreeReads(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		env := sim.NewEnv(1, 0, 0)
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
// makes a statement, so under the baseline an order's statements on sim.Env
// are NO1's six and two per line entered before it. Under the ACC the line
// steps before it completed: an order whose last item is unused is
// compensated with its earlier lines restocked, and one whose first item is
// unused is compensated for NO1 alone. Under the baseline both abort without
// compensation. Every way, no stock row moves and no order or line stays.
func TestUnusedItemAbortsInItsLineStep(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		env := sim.NewEnv(1, 0, 0)
		scale := smallScale()
		eng, w := testSystem(t, mode, scale, core.WithEnv(env))
		r := rand.New(rand.NewSource(7))
		for _, unused := range []string{"last", "first"} {
			a := w.NewOrderArgs(r)
			k := len(a.Lines) - 1 // the unused line, and the lines entered before it
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
				if want := uint64(6 + 2*k); stmts != want {
					t.Errorf("%v, %s item unused: %d statements, want %d (6 + 2 per entered line)", mode, unused, stmts, want)
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
