package tpcc

import (
	"context"
	"slices"
	"testing"

	"accdb/internal/core"
	"accdb/internal/spi"
)

var keysSink []spi.Key

// TestStockKeysAllocFree is the CI allocation guard for stock-level's key
// list (run via -run 'AllocFree'): stockKeys encodes every stock key into one
// buffer, so any number of items costs two allocations, and the keys are the
// ones EncodeKey builds, in item order.
func TestStockKeysAllocFree(t *testing.T) {
	items := []int64{1, 7, 42, 255, 256, 99999}
	keys := stockKeys(3, items)
	if len(keys) != len(items) {
		t.Fatalf("%d keys for %d items", len(keys), len(items))
	}
	for i, item := range items {
		if want := spi.EncodeKey(i64(3), i64(item)); keys[i] != want {
			t.Errorf("key %d = %x, want %x", i, keys[i], want)
		}
	}
	if !slices.IsSorted(keys) {
		t.Error("ascending items gave unsorted keys")
	}
	many := make([]int64, 190)
	for i := range many {
		many[i] = int64(i + 1)
	}
	for _, in := range [][]int64{items[:1], many} {
		if n := testing.AllocsPerRun(100, func() { keysSink = stockKeys(3, in) }); n != 2 {
			t.Errorf("stockKeys of %d items: %.1f allocs/op, want 2", len(in), n)
		}
	}
}

var partsSink [][]spi.Value

// TestOrderPartsAllocFree is the CI allocation guard for stock-level's
// partition list (run via -run 'AllocFree'): orderParts slices every order's
// (w, d, o) from one buffer, so any number of orders costs two allocations,
// and the partitions come in ascending order, as ScanPartitions needs them.
func TestOrderPartsAllocFree(t *testing.T) {
	parts := orderParts(3, 7, 41, 51)
	if len(parts) != 10 {
		t.Fatalf("%d partitions for orders 41..50", len(parts))
	}
	for i, p := range parts {
		want := []spi.Value{i64(3), i64(7), i64(41 + int64(i))}
		if !slices.EqualFunc(p, want, spi.Value.Equal) || cap(p) != 3 {
			t.Errorf("partition %d = %v (cap %d), want %v (cap 3)", i, p, cap(p), want)
		}
	}
	if len(orderParts(3, 7, 5, 5)) != 0 {
		t.Error("an empty order range named partitions")
	}
	for _, n := range []int64{1, 10} {
		if a := testing.AllocsPerRun(100, func() { partsSink = orderParts(3, 7, 41, 41+n) }); a != 2 {
			t.Errorf("orderParts of %d orders: %.1f allocs/op, want 2", n, a)
		}
	}
}

// TestStockLevelMatchesReference: after a seeded mix, stockLevelLow counts,
// at the locked and the snapshot tier, what a map-and-loop count over the
// quiescent tables does for the same district.
func TestStockLevelMatchesReference(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	runMix(t, eng, w, 4, 60, 23)
	sl := eng.Type("stock_level")
	nonzero := false
	for did := int64(1); did <= int64(smallScale().Districts); did++ {
		for _, threshold := range []int64{20, 60} {
			a := &StockLevelArgs{WID: 1, DID: did, Threshold: threshold, Orders: 10}
			want := referenceLow(t, eng.DB(), a)
			nonzero = nonzero || want > 0
			for _, tier := range []core.ReadTier{core.TierLocked, core.TierSnapshot} {
				var got int
				probe := &core.TxnType{Name: sl.Name, ID: sl.ID, Steps: []core.Step{{
					Name: "SL", Type: sl.Steps[0].Type,
					Body: func(tc *core.Ctx) (err error) {
						got, err = stockLevelLow(tc, a)
						return err
					},
				}}}
				if err := eng.Exec(context.Background(), core.Request{Type: probe, Args: a, Tier: tier}); err != nil {
					t.Fatalf("%v: %v", tier, err)
				}
				if got != want {
					t.Errorf("district %d, threshold %d, %v: stockLevelLow = %d, reference %d", did, threshold, tier, got, want)
				}
			}
		}
	}
	if !nonzero {
		t.Fatal("every reference count is 0: the comparison proves nothing")
	}
}

// referenceLow is the stock-level count over the tables themselves: a map of
// the distinct items of the district's last a.Orders orders, then one stock
// lookup per item.
func referenceLow(t *testing.T, db *core.DB, a *StockLevelArgs) int {
	t.Helper()
	drow, err := db.Table(TDistrict).Get(spi.EncodeKey(i64(a.WID), i64(a.DID)))
	if err != nil {
		t.Fatal(err)
	}
	next := drow[colDNext].Int64()
	lo := next - a.Orders
	if lo < 1 {
		lo = 1
	}
	items := make(map[int64]bool)
	for o := lo; o < next; o++ {
		err := db.Table(TOrderLine).IndexScan(core.PartIndex, []spi.Value{i64(a.WID), i64(a.DID), i64(o)},
			func(_ spi.Key, row spi.Row) bool {
				items[row[colOLItem].Int64()] = true
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	low := 0
	for item := range items {
		row, err := db.Table(TStock).Get(spi.EncodeKey(i64(a.WID), i64(item)))
		if err == nil && row[colSQty].Int64() < a.Threshold {
			low++
		}
	}
	return low
}
