package tpcc

import (
	"fmt"
	"slices"
	"strings"

	"accdb/internal/core"
	"accdb/internal/spi"
)

// --- delivery ----------------------------------------------------------------

// deliveryType builds the long-running delivery transaction: for every
// district, a claim step (D1) pops the oldest queued order and an apply step
// (D2) delivers it, then a finalize step (DF) closes the batch. Decomposing
// per district is what lets other work proceed in districts the delivery has
// already passed — the headline effect of Figure 3.
func (reg *Registration) deliveryType() *core.TxnType {
	t := reg.Types
	steps := make([]core.Step, 0, 2*reg.Scale.Districts+1)
	for d := 1; d <= reg.Scale.Districts; d++ {
		steps = append(steps, core.Step{
			Name: fmt.Sprintf("D1[%d]", d), Type: t.D1,
			Body: reg.dlvClaim(int64(d)),
		})
		steps = append(steps, core.Step{
			Name: fmt.Sprintf("D2[%d]", d), Type: t.D2,
			Pre:  []*core.Assertion{reg.aDlvClaim},
			Body: reg.dlvApply(int64(d)),
		})
	}
	steps = append(steps, core.Step{Name: "DF", Type: t.DF, Body: reg.dlvFinalize})
	return &core.TxnType{
		Name:                  "delivery",
		ID:                    t.Delivery,
		InterStatementCompute: true,
		Steps:                 steps,
		Comp: &core.Compensation{
			Type: t.CSDelivery,
			Body: reg.dlvCompensate,
		},
		AppendArgs: deliveryCodec.Encode,
		DecodeArgs: deliveryCodec.DecodeNew,
	}
}

// dlvClaim is D1: pop the oldest new_order entry of the district, if any.
// The claim works at row granularity through the by_dist index head — a
// delivery popping the queue head must not collide with new-orders appending
// at the tail (they use different index pages in the modelled system). An
// in-flight new-order's queue entry carries its exposure mark, so the claim
// can never steal a half-entered order. Two deliveries do collide: the claim
// leaves this delivery's exposure mark on the district's queue and D1 may not
// interleave with a delivery, so a later one waits here until this one
// commits — it cannot deliver past an order whose claim dlvCompensate may
// still put back, which would leave a hole in the queue (condition 3).
//
// The first claim is also where the type refuses a record that is not sized
// for this database: every later step indexes the work area by district, and
// over the wire it is the client that sized it.
func (reg *Registration) dlvClaim(d int64) func(*core.Ctx) error {
	return func(tc *core.Ctx) error {
		a := tc.Args().(*DeliveryArgs)
		if a.districts() != reg.Scale.Districts {
			return fmt.Errorf("%w: delivery over %d districts, the warehouse has %d",
				core.ErrBadArgs, a.districts(), reg.Scale.Districts)
		}
		row, err := tc.ClaimMin(TNewOrder, IdxNewOrderByDist,
			[]spi.Value{i64(a.WID), i64(d)})
		if err != nil {
			return err
		}
		if row != nil {
			a.Claimed[d-1] = row[colNoOID].Int64()
		} else {
			a.Claimed[d-1] = 0
		}
		return nil
	}
}

// dlvApply is D2: mark the claimed order delivered, stamp its lines, total
// their amounts, and credit the customer.
func (reg *Registration) dlvApply(d int64) func(*core.Ctx) error {
	return func(tc *core.Ctx) error {
		a := tc.Args().(*DeliveryArgs)
		o := a.Claimed[d-1]
		if o == 0 {
			return nil // district had no pending order: a skipped delivery
		}
		var cid int64
		err := tc.Update(TOrders, []spi.Value{i64(a.WID), i64(d), i64(o)}, func(row spi.Row) error {
			cid = row[colOCID].Int64()
			row[colOCarrier] = i64(a.Carrier)
			return nil
		})
		if err != nil {
			return err
		}
		var total int64
		err = tc.UpdateWhere(TOrderLine,
			[]spi.Value{i64(a.WID), i64(d), i64(o)},
			func(row spi.Row) (spi.Row, error) {
				total += row[colOLAmount].Int64()
				row[colOLDelivery] = i64(a.Date)
				return row, nil
			})
		if err != nil {
			return err
		}
		a.Amounts[d-1] = total
		a.Customers[d-1] = cid
		return tc.Update(TCustomer, []spi.Value{i64(a.WID), i64(d), i64(cid)}, func(row spi.Row) error {
			row[colCBalance] = i64(row[colCBalance].Int64() + total)
			row[colCDlvCnt] = i64(row[colCDlvCnt].Int64() + 1)
			return nil
		})
	}
}

// dlvFinalize is DF: the batch bookkeeping step (the benchmark records
// skipped deliveries in a result file; nothing in the database changes).
func (reg *Registration) dlvFinalize(tc *core.Ctx) error { return nil }

// dlvCompensate reverses the districts the delivery completed and
// un-claims a district caught between D1 and D2.
func (reg *Registration) dlvCompensate(tc *core.Ctx, completed int) error {
	a := tc.Args().(*DeliveryArgs)
	full := completed / 2    // districts with both D1 and D2 done
	half := completed%2 == 1 // one district claimed but not applied
	for d := int64(1); d <= int64(full); d++ {
		o := a.Claimed[d-1]
		if o == 0 {
			continue
		}
		err := tc.Update(TOrders, []spi.Value{i64(a.WID), i64(d), i64(o)}, func(row spi.Row) error {
			row[colOCarrier] = i64(0)
			return nil
		})
		if err != nil {
			return err
		}
		err = tc.UpdateWhere(TOrderLine,
			[]spi.Value{i64(a.WID), i64(d), i64(o)},
			func(row spi.Row) (spi.Row, error) {
				row[colOLDelivery] = i64(0)
				return row, nil
			})
		if err != nil {
			return err
		}
		amount, cid := a.Amounts[d-1], a.Customers[d-1]
		err = tc.Update(TCustomer, []spi.Value{i64(a.WID), i64(d), i64(cid)}, func(row spi.Row) error {
			row[colCBalance] = i64(row[colCBalance].Int64() - amount)
			row[colCDlvCnt] = i64(row[colCDlvCnt].Int64() - 1)
			return nil
		})
		if err != nil {
			return err
		}
		if err := tc.Insert(TNewOrder, spi.Row{i64(a.WID), i64(d), i64(o)}); err != nil {
			return err
		}
	}
	if half {
		d := int64(full + 1)
		if o := a.Claimed[d-1]; o != 0 {
			if err := tc.Insert(TNewOrder, spi.Row{i64(a.WID), i64(d), i64(o)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- order-status ------------------------------------------------------------

// orderStatusType is the read-only single-step order-status transaction; the
// benchmark requires it serializable, which the conservative interleaving
// default provides.
func (reg *Registration) orderStatusType() *core.TxnType {
	t := reg.Types
	return &core.TxnType{
		Name:  "order_status",
		ID:    t.OrderStatus,
		Steps: []core.Step{{Name: "OS", Type: t.OS, Body: reg.orderStatus}},
	}
}

func (reg *Registration) orderStatus(tc *core.Ctx) error {
	a := tc.Args().(*OrderStatusArgs)
	cid, crow, err := resolveCustomer(tc, a.WID, a.DID, a.CID, a.CLast)
	if err != nil {
		return err
	}
	if crow == nil { // by id: the customer is not read yet
		if _, err := tc.Get(TCustomer, i64(a.WID), i64(a.DID), i64(cid)); err != nil {
			return err
		}
	}
	rows, err := tc.LookupByIndex(TOrders, IdxOrdersByCust,
		[]spi.Value{i64(a.WID), i64(a.DID), i64(cid)})
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	latest := int64(0)
	for _, row := range rows {
		if o := row[colOID].Int64(); o > latest {
			latest = o
		}
	}
	return tc.ScanPartition(TOrderLine,
		[]spi.Value{i64(a.WID), i64(a.DID), i64(latest)},
		func(spi.Row) error { return nil })
}

// --- stock-level -------------------------------------------------------------

// stockLevelType is the single-step stock-level transaction. The benchmark
// allows it to run read-committed; its interleave permissions encode exactly
// that, so it reads through exposure marks instead of stalling the district.
func (reg *Registration) stockLevelType() *core.TxnType {
	t := reg.Types
	return &core.TxnType{
		Name:  "stock_level",
		ID:    t.StockLevel,
		Steps: []core.Step{{Name: "SL", Type: t.SL, Body: reg.stockLevel}},
	}
}

func (reg *Registration) stockLevel(tc *core.Ctx) error {
	_, err := stockLevelLow(tc, tc.Args().(*StockLevelArgs))
	return err // the count is reported to the terminal; nothing stored
}

// stockLevelLow counts the distinct items of the district's last a.Orders
// orders whose stock in warehouse a.WID is below a.Threshold, in three
// statements: the district read, one read of the orders' line partitions
// (orderParts) and one of their stock rows (stockKeys). It allocates per
// statement, not per order or item read: the item ids gather in one slice and
// are deduplicated by sorting it.
func stockLevelLow(tc *core.Ctx, a *StockLevelArgs) (int, error) {
	drow, err := tc.Get(TDistrict, i64(a.WID), i64(a.DID))
	if err != nil {
		return 0, err
	}
	next := drow[colDNext].Int64()
	lo := max(next-a.Orders, 1)
	items := make([]int64, 0, 16*max(next-lo, 0)) // an order has at most 15 lines
	err = tc.ScanPartitions(TOrderLine, orderParts(a.WID, a.DID, lo, next), func(row spi.Row) error {
		items = append(items, row[colOLItem].Int64())
		return nil
	})
	if err != nil {
		return 0, err
	}
	slices.Sort(items)
	items = slices.Compact(items)
	low := 0
	err = tc.GetMany(TStock, stockKeys(a.WID, items), func(row spi.Row) error {
		if row[colSQty].Int64() < a.Threshold {
			low++
		}
		return nil
	})
	return low, err
}

// orderParts names the order-line partitions (w, d, o) of orders lo up to,
// not including, next, in ascending order, slicing every partition's values
// from one buffer: two allocations for any number of orders.
func orderParts(w, d, lo, next int64) [][]spi.Value {
	n := int(max(next-lo, 0))
	vals := make([]spi.Value, 3*n)
	parts := make([][]spi.Value, n)
	for i := range parts {
		p := vals[3*i : 3*i+3 : 3*i+3]
		p[0], p[1], p[2] = i64(w), i64(d), i64(lo+int64(i))
		parts[i] = p
	}
	return parts
}

// stockKeys encodes the stock primary key (w, item) of each item: idKeys with
// the warehouse leading.
func stockKeys(w int64, items []int64) []spi.Key {
	return idKeys([]spi.Value{i64(w)}, items)
}

// idKeys encodes the primary key (lead..., id) of each id into one buffer and
// slices the keys out of it: two allocations for any number of ids. Ascending
// ids give ascending keys, since the key encoding preserves order.
func idKeys(lead []spi.Value, ids []int64) []spi.Key {
	n := spi.KeyLen(i64(0))
	for _, v := range lead {
		n += spi.KeyLen(v)
	}
	var b strings.Builder
	b.Grow(n * len(ids))
	for _, id := range ids {
		for _, v := range lead {
			spi.AppendKeyVal(&b, v)
		}
		spi.AppendKeyVal(&b, i64(id))
	}
	buf := b.String()
	keys := make([]spi.Key, len(ids))
	for i := range keys {
		keys[i] = spi.Key(buf[i*n : (i+1)*n])
	}
	return keys
}
