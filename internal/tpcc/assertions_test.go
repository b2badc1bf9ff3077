package tpcc

import (
	"slices"
	"testing"

	"accdb/internal/core"
	"accdb/internal/spi"
)

// noOpenFootprint is A_NO_OPEN's footprint, enumerated: the instance's own
// orders row, new_order row and order_line partition, once its order id is
// assigned.
func noOpenFootprint(args any) []spi.Item {
	a := args.(*NewOrderArgs)
	if a.ONum == 0 {
		return nil // the §3.2 false-conflict case: identity unknown
	}
	key := spi.EncodeKey(i64(a.WID), i64(a.DID), i64(a.ONum))
	return []spi.Item{
		spi.RowItem(TOrders, key),
		spi.RowItem(TNewOrder, key),
		spi.PartitionItem(TOrderLine, key),
	}
}

// dlvClaimFootprint is A_DLV_CLAIM's footprint, enumerated: the orders row
// and order_line partition of every order the delivery has claimed.
func dlvClaimFootprint(args any) []spi.Item {
	a := args.(*DeliveryArgs)
	var out []spi.Item
	for d, o := range a.Claimed {
		if o == 0 {
			continue
		}
		key := spi.EncodeKey(i64(a.WID), i64(int64(d+1)), i64(o))
		out = append(out,
			spi.RowItem(TOrders, key),
			spi.PartitionItem(TOrderLine, key))
	}
	return out
}

// TestOrderAssertionsCover: A_NO_OPEN's and A_DLV_CLAIM's Covers answer
// exactly "is the item in the instance's footprint" (the enumerations
// above), over items of the footprint and items that differ from one in
// table, level or key, and answer a lock request outside an order's granules
// without building a key.
func TestOrderAssertionsCover(t *testing.T) {
	reg := &Registration{Types: &Types{ANoOpen: 1, ADlvClaim: 2}}
	reg.buildAssertions()
	key := func(w, d, o int64) spi.Key { return spi.EncodeKey(i64(w), i64(d), i64(o)) }
	var items []spi.Item
	for _, table := range []string{TOrders, TNewOrder, TOrderLine, TStock, TCustomer, TDistrict} {
		for _, k := range []spi.Key{key(1, 3, 7), key(1, 3, 8), key(1, 4, 7), key(2, 3, 7), key(1, 5, 9), ""} {
			items = append(items, spi.RowItem(table, k), spi.PartitionItem(table, k))
		}
		items = append(items, spi.TableItem(table))
	}
	for _, c := range []struct {
		name      string
		a         *core.Assertion
		footprint func(args any) []spi.Item
		args      any
	}{
		{"A_NO_OPEN", reg.aNoOpen, noOpenFootprint, &NewOrderArgs{WID: 1, DID: 3, ONum: 7}},
		{"A_NO_OPEN before the order id", reg.aNoOpen, noOpenFootprint, &NewOrderArgs{WID: 1, DID: 3}},
		{"A_DLV_CLAIM", reg.aDlvClaim, dlvClaimFootprint, &DeliveryArgs{WID: 1, Claimed: []int64{0, 0, 7, 0, 9}}},
		{"A_DLV_CLAIM, nothing claimed", reg.aDlvClaim, dlvClaimFootprint, &DeliveryArgs{WID: 1, Claimed: make([]int64, 10)}},
	} {
		footprint := c.footprint(c.args)
		matched := 0
		for _, it := range items {
			want := slices.Contains(footprint, it)
			if got := c.a.Covers(c.args, it); got != want {
				t.Errorf("%s: Covers(%v) = %v, want %v", c.name, it, got, want)
			}
			if want {
				matched++
			}
		}
		if matched != len(footprint) {
			t.Errorf("%s: %d of the %d footprint items among the probes", c.name, matched, len(footprint))
		}
		outside := spi.RowItem(TStock, key(1, 3, 7))
		if n := testing.AllocsPerRun(100, func() { c.a.Covers(c.args, outside) }); n != 0 {
			t.Errorf("%s: Covers on a stock row: %.1f allocs/op, want 0", c.name, n)
		}
	}
}
