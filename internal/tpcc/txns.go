package tpcc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"accdb/internal/core"
	"accdb/internal/spi"
)

// Column ordinals, resolved once against the schemas.
var (
	colWTax = warehouseSchema.MustCol("w_tax")
	colWYTD = warehouseSchema.MustCol("w_ytd")

	colDTax  = districtSchema.MustCol("d_tax")
	colDYTD  = districtSchema.MustCol("d_ytd")
	colDNext = districtSchema.MustCol("d_next_o_id")

	colCID       = customerSchema.MustCol("c_id")
	colCFirst    = customerSchema.MustCol("c_first")
	colCCredit   = customerSchema.MustCol("c_credit")
	colCDiscount = customerSchema.MustCol("c_discount")
	colCBalance  = customerSchema.MustCol("c_balance")
	colCYTDPay   = customerSchema.MustCol("c_ytd_payment")
	colCPayCnt   = customerSchema.MustCol("c_payment_cnt")
	colCDlvCnt   = customerSchema.MustCol("c_delivery_cnt")
	colCData     = customerSchema.MustCol("c_data")

	colNoOID = newOrderSchema.MustCol("no_o_id")

	colOID      = ordersSchema.MustCol("o_id")
	colOCID     = ordersSchema.MustCol("o_c_id")
	colOCarrier = ordersSchema.MustCol("o_carrier_id")
	colOOLCnt   = ordersSchema.MustCol("o_ol_cnt")

	colOLNumber   = orderLineSchema.MustCol("ol_number")
	colOLItem     = orderLineSchema.MustCol("ol_i_id")
	colOLSupplyW  = orderLineSchema.MustCol("ol_supply_w_id")
	colOLDelivery = orderLineSchema.MustCol("ol_delivery_d")
	colOLQty      = orderLineSchema.MustCol("ol_quantity")
	colOLAmount   = orderLineSchema.MustCol("ol_amount")

	colIID    = itemSchema.MustCol("i_id")
	colIPrice = itemSchema.MustCol("i_price")

	colSQty      = stockSchema.MustCol("s_quantity")
	colSYTD      = stockSchema.MustCol("s_ytd")
	colSOrderCnt = stockSchema.MustCol("s_order_cnt")
)

// The fixed columns new-order reads through Ctx.GetCols, without locks.
var (
	wTaxCols      = []int{colWTax}
	cDiscountCols = []int{colCDiscount}
)

func i64(v int64) spi.Value { return spi.I64(v) }

// Registration binds the TPC-C transaction types to an engine.
type Registration struct {
	Types *Types
	Scale Scale

	// partitions is the partition count of the deployment this engine
	// belongs to (1 = a plain single-engine system). Warehouses map to
	// partitions by PartitionOf; a new-order line whose supply warehouse
	// lives in another partition is entered locally but its stock update
	// runs as a remote shot (the NOR step's hook).
	partitions int

	aNoOpen   *core.Assertion
	aDlvClaim *core.Assertion
}

// Register declares the five decomposed TPC-C transactions on the engine.
func Register(eng *core.Engine, types *Types, scale Scale) (*Registration, error) {
	return RegisterPartitioned(eng, types, scale, 1)
}

// RegisterPartitioned is Register for one engine of a partitioned
// deployment: the five transaction types become partition-aware (remote
// stock lines are delegated to the NOR hook step), and the no_stock /
// no_stock_undo shot types are additionally registered so this engine can
// execute and recover shots of cross-partition new-orders.
func RegisterPartitioned(eng *core.Engine, types *Types, scale Scale, partitions int) (*Registration, error) {
	reg := &Registration{Types: types, Scale: scale, partitions: partitions}
	reg.buildAssertions()
	tts := []*core.TxnType{
		reg.newOrderType(), reg.paymentType(), reg.deliveryType(),
		reg.orderStatusType(), reg.stockLevelType(),
	}
	if partitions > 1 {
		tts = append(tts, reg.noStockType(), reg.noStockUndoType())
	}
	for _, tt := range tts {
		if err := eng.Register(tt); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// PartitionOf maps a warehouse to its partition: warehouses stripe
// round-robin so any partition count divides the load evenly.
func PartitionOf(wid int64, partitions int) int {
	if partitions <= 1 {
		return 0
	}
	return int((wid - 1) % int64(partitions))
}

// isLocal reports whether a supply warehouse lives in the same partition as
// the order's home warehouse.
func (reg *Registration) isLocal(homeW, supplyW int64) bool {
	return reg.partitions <= 1 ||
		PartitionOf(homeW, reg.partitions) == PartitionOf(supplyW, reg.partitions)
}

// buildAssertions constructs the interstep assertion declarations.
//
// A_NO_OPEN is the TPC-C analogue of the paper's I1^o_num (§4): while a
// new-order is between steps, its order exists, has exactly the lines
// entered so far, and is undelivered. Its footprint is the instance's own
// orders row, new_order row, and order_line partition — locking them
// assertionally is what stops a delivery from claiming a half-entered order.
//
// A_DLV_CLAIM protects a delivery between claiming an order (D1) and
// applying its updates (D2): the claimed orders row and order_line
// partition must not change underneath it.
func (reg *Registration) buildAssertions() {
	reg.aNoOpen = &core.Assertion{
		ID:   reg.Types.ANoOpen,
		Name: "A_NO_OPEN",
		Covers: func(args any, item spi.Item) bool {
			if !orderGranule(item, true) {
				return false
			}
			a := args.(*NewOrderArgs)
			// ONum == 0: the order id is not assigned yet.
			return a.ONum != 0 && item.Key == a.oKey.of(a.WID, a.DID, a.ONum)
		},
	}
	reg.aDlvClaim = &core.Assertion{
		ID:   reg.Types.ADlvClaim,
		Name: "A_DLV_CLAIM",
		Covers: func(args any, item spi.Item) bool {
			if !orderGranule(item, false) {
				return false
			}
			a := args.(*DeliveryArgs)
			if len(a.claimKeys) != len(a.Claimed) {
				a.claimKeys = make([]cachedOrderKey, len(a.Claimed))
			}
			for d, o := range a.Claimed {
				if o != 0 && item.Key == a.claimKeys[d].of(a.WID, int64(d+1), o) {
					return true
				}
			}
			return false
		},
	}
}

// orderGranule reports whether item is a granule an order's assertions can
// cover — its orders row, its new_order row when withNewOrder is set, or its
// order_line partition — so Covers looks at an order key only for those.
func orderGranule(item spi.Item, withNewOrder bool) bool {
	switch item.Table {
	case TOrders:
		return item.Level == spi.LevelRow
	case TNewOrder:
		return withNewOrder && item.Level == spi.LevelRow
	case TOrderLine:
		return item.Level == spi.LevelPartition
	}
	return false
}

// --- new-order -------------------------------------------------------------

// maxOrderLines is the most lines a TPC-C order has (§2.4.1.3).
const maxOrderLines = 15

// noLineNames names the line steps of an order of up to maxOrderLines lines.
var noLineNames = func() (names [maxOrderLines]string) {
	for i := range names {
		names[i] = fmt.Sprintf("NO2[%d]", i+1)
	}
	return names
}()

// newOrderType declares new-order. What its steps share — the bodies, the
// precondition list, the line steps' names — is built here once, so MakeSteps
// allocates only the step slice; only an order longer than maxOrderLines, which
// no TPC-C draw makes, formats its extra names.
func (reg *Registration) newOrderType() *core.TxnType {
	t := reg.Types
	pre := []*core.Assertion{reg.aNoOpen}
	setup, line, hook, finish := reg.noSetup, reg.noLine, reg.noRemote, reg.noFinalize
	return &core.TxnType{
		Name:                  "new_order",
		ID:                    t.NewOrder,
		InterStatementCompute: true,
		MakeSteps: func(args any) []core.Step {
			a := args.(*NewOrderArgs)
			steps := make([]core.Step, 0, len(a.Lines)+3)
			steps = append(steps, core.Step{Name: "NO1", Type: t.NO1, Body: setup})
			remote := false
			for i := range a.Lines {
				if !reg.isLocal(a.WID, a.Lines[i].SupplyW) {
					remote = true
				}
				step := core.Step{Type: t.NO2, Pre: pre, Body: line}
				if i < maxOrderLines {
					step.Name = noLineNames[i]
				} else {
					step.Name = fmt.Sprintf("NO2[%d]", i+1)
				}
				steps = append(steps, step)
			}
			if remote {
				// Only instances that actually cross partitions pay for the
				// hook step (and its end-of-step force): the single-partition
				// hot path keeps the exact step sequence it always had.
				steps = append(steps, core.Step{Name: "NOR", Type: t.NOR, Pre: pre, Body: hook})
			}
			steps = append(steps, core.Step{Name: "NOF", Type: t.NOF, Pre: pre, Body: finish})
			return steps
		},
		Comp: &core.Compensation{
			Type: t.CSNewOrder,
			Body: reg.noCompensate,
		},
		AppendArgs: newOrderCodec.Encode,
		DecodeArgs: newOrderCodec.DecodeNew,
	}
}

// noSetup is NO1: read warehouse and customer rates and the order's item
// prices, take the next order number from the district (the hot-spot counter
// of §5.1), and enter the order and its new_order queue entry. The rates and
// prices are fixed columns, read without locks before the district Update, so
// new-order never queues behind payment's X lock on the warehouse row (w_ytd)
// and holds the district's X lock across the Update and the two inserts only.
// An order with a quantity outside TPC-C's 1–10 (§2.4.1.5) aborts before its
// first statement: its amount and restock would be wrong, and a quantity of 0
// would read as the unused item's 0 amount.
func (reg *Registration) noSetup(tc *core.Ctx) error {
	a := tc.Args().(*NewOrderArgs)
	for _, l := range a.Lines {
		if l.Quantity < 1 || l.Quantity > 10 {
			return tc.Abort("quantity out of range")
		}
	}
	var v [1]spi.Value
	if err := tc.GetCols(TWarehouse, wTaxCols, v[:], i64(a.WID)); err != nil {
		return err
	}
	a.WTax = v[0].Int64()
	if err := tc.GetCols(TCustomer, cDiscountCols, v[:], i64(a.WID), i64(a.DID), i64(a.CID)); err != nil {
		return err
	}
	a.CDiscount = v[0].Int64()
	if err := linePrices(tc, a); err != nil {
		return err
	}
	err := tc.Update(TDistrict, []spi.Value{i64(a.WID), i64(a.DID)}, func(row spi.Row) error {
		a.DTax = row[colDTax].Int64()
		a.ONum = row[colDNext].Int64()
		row[colDNext] = i64(a.ONum + 1)
		return nil
	})
	if err != nil {
		return err
	}
	if err := tc.Insert(TOrders, spi.Row{
		i64(a.WID), i64(a.DID), i64(a.ONum), i64(a.CID),
		i64(0), i64(0), i64(int64(len(a.Lines))), i64(1),
	}); err != nil {
		return err
	}
	return tc.Insert(TNewOrder, spi.Row{i64(a.WID), i64(a.DID), i64(a.ONum)})
}

// linePrices sets every line's amount, quantity × i_price, from one read of
// the order's items. A line whose item does not exist keeps amount 0, the
// sentinel its line step aborts on: a TPC-C quantity and price are at least 1,
// so no real line amounts to 0.
func linePrices(tc *core.Ctx, a *NewOrderArgs) error {
	var buf [maxOrderLines]int64
	ids := buf[:0]
	for _, l := range a.Lines {
		ids = append(ids, l.ItemID)
	}
	slices.Sort(ids)
	clear(a.Amounts)
	return tc.GetMany(TItem, idKeys(nil, ids), func(row spi.Row) error {
		id, price := row[colIID].Int64(), row[colIPrice].Int64()
		for i, l := range a.Lines {
			if l.ItemID == id {
				a.Amounts[i] = l.Quantity * price
			}
		}
		return nil
	})
}

// noLine is NO2: one order line — enter the line, and deplete the stock by the
// TPC-C rule. The benchmark's 1% rollback fires here on the final line via an
// unused item number (§2.4.1.4), which NO1's price read left at amount 0,
// after earlier lines' steps completed — which is exactly what forces
// compensation under the ACC. Every line step runs this one body; the step's
// index names its line (NO1 is step 0, so line i is step i+1).
//
// The stock row, the only row here other orders contend for, is touched last,
// so its X lock is held across one statement and the step's end, not across
// the line's insert too. A line step that fails is undone as a unit, so the
// order of its writes is invisible to noCompensate.
func (reg *Registration) noLine(tc *core.Ctx) error {
	a := tc.Args().(*NewOrderArgs)
	i := tc.Step() - 1
	l := a.Lines[i]
	amount := a.Amounts[i]
	if amount == 0 {
		return tc.Abort("unused item number")
	}
	// A remote-partition supply line defers its stock update to the
	// no_stock shot the NOR step runs on the owning partition; the item
	// price came from the local replica (items are loaded identically
	// into every partition), and the order line itself always lives with
	// the order.
	if err := tc.Insert(TOrderLine, spi.Row{
		i64(a.WID), i64(a.DID), i64(a.ONum), i64(int64(i + 1)),
		i64(l.ItemID), i64(l.SupplyW), i64(0), i64(l.Quantity), i64(amount),
		spi.Str(""),
	}); err != nil {
		return err
	}
	if reg.isLocal(a.WID, l.SupplyW) {
		taken, err := takeStock(tc, l)
		if err != nil {
			return err
		}
		a.Filled[i] = taken
	}
	return nil
}

// takeStock depletes line l's stock row by the TPC-C rule (§2.4.2.2) and
// returns the quantity taken, which the row's restock gives back.
func takeStock(tc *core.Ctx, l OrderLineReq) (int64, error) {
	var taken int64
	err := tc.Update(TStock, []spi.Value{i64(l.SupplyW), i64(l.ItemID)}, func(row spi.Row) error {
		q := row[colSQty].Int64()
		nq := q - l.Quantity
		if q < l.Quantity+10 {
			nq += 91
		}
		taken = q - nq
		row[colSQty] = i64(nq)
		row[colSYTD] = i64(row[colSYTD].Int64() + l.Quantity)
		row[colSOrderCnt] = i64(row[colSOrderCnt].Int64() + 1)
		return nil
	})
	return taken, err
}

// restock reverses takeStock on line l's stock row: it gives back the
// quantity taken and undoes the year-to-date and order counts.
func restock(tc *core.Ctx, l OrderLineReq, taken int64) error {
	return tc.Update(TStock, []spi.Value{i64(l.SupplyW), i64(l.ItemID)}, func(row spi.Row) error {
		row[colSQty] = i64(row[colSQty].Int64() + taken)
		row[colSYTD] = i64(row[colSYTD].Int64() - l.Quantity)
		row[colSOrderCnt] = i64(row[colSOrderCnt].Int64() - 1)
		return nil
	})
}

// lineOrder returns the indexes of lines in ascending item order: the order
// every stock update and restock of several lines takes its stock locks in.
func lineOrder(lines []OrderLineReq) []int {
	order := make([]int, len(lines))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(lines[x].ItemID, lines[y].ItemID) })
	return order
}

// noFinalize is NOF: total the lines and apply discount and taxes — the step
// that restores the order-level conjunct of I (all lines present). The total
// is the work area's line amounts, the ol_amount values the line steps
// entered, so the step makes no statement.
func (reg *Registration) noFinalize(tc *core.Ctx) error {
	a := tc.Args().(*NewOrderArgs)
	if a.FailFinal {
		// The end-of-transaction rollback variant: every line step — and, in a
		// partitioned run, every remote shot — has committed by now, so this
		// abort drives the full compensation path.
		return tc.Abort("rollback at order finish")
	}
	var sum int64
	for _, amount := range a.Amounts {
		sum += amount
	}
	// total = sum * (1 - discount) * (1 + w_tax + d_tax), rates in basis points.
	a.Total = sum * (10000 - a.CDiscount) / 10000 * (10000 + a.WTax + a.DTax) / 10000
	return nil
}

// noCompensate semantically undoes a partial new-order: restock every
// entered line, remove the lines, and remove the order and its queue entry.
// The district's order counter is NOT decremented — later orders exist — so
// the compensated number remains as a hole, exactly the outcome §4 derives.
func (reg *Registration) noCompensate(tc *core.Ctx, completed int) error {
	a := tc.Args().(*NewOrderArgs)
	if completed < 1 || a.ONum == 0 {
		return nil
	}
	lines := completed - 1
	if lines > len(a.Lines) {
		lines = len(a.Lines)
	}
	// Restock in item order: concurrent compensations then acquire their
	// stock locks in the same order and cannot deadlock with each other.
	for _, i := range lineOrder(a.Lines[:lines]) {
		l := a.Lines[i]
		if reg.isLocal(a.WID, l.SupplyW) {
			if err := restock(tc, l, a.Filled[i]); err != nil {
				return err
			}
		}
		// A remote line's stock lives in another partition: the coordinator
		// reverses it with a no_stock_undo shot; here only the entered line
		// itself is removed.
		if err := tc.Delete(TOrderLine, i64(a.WID), i64(a.DID), i64(a.ONum), i64(int64(i+1))); err != nil {
			return err
		}
	}
	if err := tc.Delete(TNewOrder, i64(a.WID), i64(a.DID), i64(a.ONum)); err != nil &&
		!errors.Is(err, spi.ErrNotFound) {
		return err
	}
	if err := tc.Delete(TOrders, i64(a.WID), i64(a.DID), i64(a.ONum)); err != nil &&
		!errors.Is(err, spi.ErrNotFound) {
		return err
	}
	return nil
}

// --- payment ---------------------------------------------------------------

// paymentType orders the steps customer -> district -> warehouse: the
// hottest row (the warehouse, which every transaction in the warehouse
// touches) is updated last, so even the baseline holds it only across the
// final statement and the commit force. This is the standard TPC-C
// implementation discipline; the contention the paper analyses is then the
// district tuple, where new-order's counter increment and payment's
// year-to-date update genuinely collide (§5.1).
func (reg *Registration) paymentType() *core.TxnType {
	t := reg.Types
	return &core.TxnType{
		Name: "payment",
		ID:   t.Payment,
		Steps: []core.Step{
			{Name: "P1", Type: t.P1, Body: reg.payCustomer},
			{Name: "P2", Type: t.P2, Body: reg.payDistrict},
			{Name: "P3", Type: t.P3, Body: reg.payWarehouse},
		},
		Comp: &core.Compensation{
			Type: t.CSPayment,
			Body: reg.payCompensate,
		},
		AppendArgs: paymentCodec.Encode,
		DecodeArgs: paymentCodec.DecodeNew,
	}
}

func (reg *Registration) payWarehouse(tc *core.Ctx) error {
	a := tc.Args().(*PaymentArgs)
	return tc.Update(TWarehouse, []spi.Value{i64(a.WID)}, func(row spi.Row) error {
		row[colWYTD] = i64(row[colWYTD].Int64() + a.Amount)
		return nil
	})
}

func (reg *Registration) payDistrict(tc *core.Ctx) error {
	a := tc.Args().(*PaymentArgs)
	return tc.Update(TDistrict, []spi.Value{i64(a.WID), i64(a.DID)}, func(row spi.Row) error {
		row[colDYTD] = i64(row[colDYTD].Int64() + a.Amount)
		return nil
	})
}

// resolveCustomer implements the benchmark's 60/40 selection: by last name
// (the row whose c_first is the ceiling-median among the matches) or by id.
// A by-name selection also returns the row it chose, read under the S lock
// LookupByIndex took; a by-id one — and a name that matches no row, which
// falls back to the id — returns a nil row.
func resolveCustomer(tc *core.Ctx, wid, did int64, cid int64, clast string) (int64, spi.Row, error) {
	if clast == "" {
		return cid, nil, nil
	}
	rows, err := tc.LookupByIndex(TCustomer, IdxCustomerByLast,
		[]spi.Value{i64(wid), i64(did), spi.Str(clast)})
	if err != nil {
		return 0, nil, err
	}
	if len(rows) == 0 {
		return cid, nil, nil // fall back to the id the generator always supplies
	}
	slices.SortFunc(rows, func(x, y spi.Row) int {
		return strings.Compare(x[colCFirst].Text(), y[colCFirst].Text())
	})
	row := rows[len(rows)/2]
	return row[colCID].Int64(), row, nil
}

func (reg *Registration) payCustomer(tc *core.Ctx) error {
	a := tc.Args().(*PaymentArgs)
	cid, _, err := resolveCustomer(tc, a.CWID, a.CDID, a.CID, a.CLast)
	if err != nil {
		return err
	}
	a.ResolvedCID = cid
	err = tc.Update(TCustomer, []spi.Value{i64(a.CWID), i64(a.CDID), i64(cid)}, func(row spi.Row) error {
		row[colCBalance] = i64(row[colCBalance].Int64() - a.Amount)
		row[colCYTDPay] = i64(row[colCYTDPay].Int64() + a.Amount)
		row[colCPayCnt] = i64(row[colCPayCnt].Int64() + 1)
		if row[colCCredit].Text() == "BC" {
			data := fmt.Sprintf("%d %d %d %d %d %d|%s",
				cid, a.CDID, a.CWID, a.DID, a.WID, a.Amount, row[colCData].Text())
			if len(data) > 500 {
				data = data[:500]
			}
			row[colCData] = spi.Str(data)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return tc.Insert(THistory, spi.Row{
		i64(a.HID), i64(cid), i64(a.CDID), i64(a.CWID),
		i64(a.DID), i64(a.WID), i64(a.Date), i64(a.Amount), spi.Str(""),
	})
}

// payCompensate reverses the completed steps: the customer update and the
// history record (step 1), then the district year-to-date (step 2). The
// warehouse step is last, so a completed warehouse step means the
// transaction committed and compensation is never invoked for it.
func (reg *Registration) payCompensate(tc *core.Ctx, completed int) error {
	a := tc.Args().(*PaymentArgs)
	if completed >= 1 {
		err := tc.Update(TCustomer, []spi.Value{i64(a.CWID), i64(a.CDID), i64(a.ResolvedCID)}, func(row spi.Row) error {
			row[colCBalance] = i64(row[colCBalance].Int64() + a.Amount)
			row[colCYTDPay] = i64(row[colCYTDPay].Int64() - a.Amount)
			row[colCPayCnt] = i64(row[colCPayCnt].Int64() - 1)
			return nil
		})
		if err != nil {
			return err
		}
		if err := tc.Delete(THistory, i64(a.HID)); err != nil &&
			!errors.Is(err, spi.ErrNotFound) {
			return err
		}
	}
	if completed >= 2 {
		err := tc.Update(TDistrict, []spi.Value{i64(a.WID), i64(a.DID)}, func(row spi.Row) error {
			row[colDYTD] = i64(row[colDYTD].Int64() - a.Amount)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
