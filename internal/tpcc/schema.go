package tpcc

import (
	"accdb/internal/core"
	"accdb/internal/spi"
)

// Table names.
const (
	TWarehouse = "warehouse"
	TDistrict  = "district"
	TCustomer  = "customer"
	THistory   = "history"
	TNewOrder  = "new_order"
	TOrders    = "orders"
	TOrderLine = "order_line"
	TItem      = "item"
	TStock     = "stock"
)

// Secondary index names.
const (
	IdxCustomerByLast = "by_last"
	IdxOrdersByCust   = "by_cust"
	IdxNewOrderByDist = "by_dist"
)

// Monetary values are stored in cents and rates (tax, discount) in basis
// points, so the consistency conditions are exact integer identities.
//
// The columns no step type writes and new-order reads — w_tax, c_discount and
// the whole item table — are declared Fixed, so new-order reads them without
// locks (Ctx.GetCols). That makes the warehouse, customer and item row sets
// fixed too: no step type inserts or deletes there; the loader writes through
// the store. d_tax is left unfixed: NO1 reads it inside the district Update
// that takes the row's X lock anyway.

var (
	warehouseSchema = spi.MustSchema(TWarehouse, []spi.Column{
		{Name: "w_id", Kind: spi.KindInt},
		{Name: "w_name", Kind: spi.KindString},
		{Name: "w_street_1", Kind: spi.KindString},
		{Name: "w_street_2", Kind: spi.KindString},
		{Name: "w_city", Kind: spi.KindString},
		{Name: "w_state", Kind: spi.KindString},
		{Name: "w_zip", Kind: spi.KindString},
		{Name: "w_tax", Kind: spi.KindInt, Fixed: true},
		{Name: "w_ytd", Kind: spi.KindInt},
	}, "w_id")

	districtSchema = spi.MustSchema(TDistrict, []spi.Column{
		{Name: "d_w_id", Kind: spi.KindInt},
		{Name: "d_id", Kind: spi.KindInt},
		{Name: "d_name", Kind: spi.KindString},
		{Name: "d_street_1", Kind: spi.KindString},
		{Name: "d_city", Kind: spi.KindString},
		{Name: "d_state", Kind: spi.KindString},
		{Name: "d_zip", Kind: spi.KindString},
		{Name: "d_tax", Kind: spi.KindInt},
		{Name: "d_ytd", Kind: spi.KindInt},
		{Name: "d_next_o_id", Kind: spi.KindInt},
	}, "d_w_id", "d_id")

	customerSchema = spi.MustSchema(TCustomer, []spi.Column{
		{Name: "c_w_id", Kind: spi.KindInt},
		{Name: "c_d_id", Kind: spi.KindInt},
		{Name: "c_id", Kind: spi.KindInt},
		{Name: "c_first", Kind: spi.KindString},
		{Name: "c_middle", Kind: spi.KindString},
		{Name: "c_last", Kind: spi.KindString},
		{Name: "c_street_1", Kind: spi.KindString},
		{Name: "c_city", Kind: spi.KindString},
		{Name: "c_state", Kind: spi.KindString},
		{Name: "c_zip", Kind: spi.KindString},
		{Name: "c_phone", Kind: spi.KindString},
		{Name: "c_since", Kind: spi.KindInt},
		{Name: "c_credit", Kind: spi.KindString},
		{Name: "c_credit_lim", Kind: spi.KindInt},
		{Name: "c_discount", Kind: spi.KindInt, Fixed: true},
		{Name: "c_balance", Kind: spi.KindInt},
		{Name: "c_ytd_payment", Kind: spi.KindInt},
		{Name: "c_payment_cnt", Kind: spi.KindInt},
		{Name: "c_delivery_cnt", Kind: spi.KindInt},
		{Name: "c_data", Kind: spi.KindString},
	}, "c_w_id", "c_d_id", "c_id")

	historySchema = spi.MustSchema(THistory, []spi.Column{
		{Name: "h_id", Kind: spi.KindInt},
		{Name: "h_c_id", Kind: spi.KindInt},
		{Name: "h_c_d_id", Kind: spi.KindInt},
		{Name: "h_c_w_id", Kind: spi.KindInt},
		{Name: "h_d_id", Kind: spi.KindInt},
		{Name: "h_w_id", Kind: spi.KindInt},
		{Name: "h_date", Kind: spi.KindInt},
		{Name: "h_amount", Kind: spi.KindInt},
		{Name: "h_data", Kind: spi.KindString},
	}, "h_id")

	newOrderSchema = spi.MustSchema(TNewOrder, []spi.Column{
		{Name: "no_w_id", Kind: spi.KindInt},
		{Name: "no_d_id", Kind: spi.KindInt},
		{Name: "no_o_id", Kind: spi.KindInt},
	}, "no_w_id", "no_d_id", "no_o_id")

	ordersSchema = spi.MustSchema(TOrders, []spi.Column{
		{Name: "o_w_id", Kind: spi.KindInt},
		{Name: "o_d_id", Kind: spi.KindInt},
		{Name: "o_id", Kind: spi.KindInt},
		{Name: "o_c_id", Kind: spi.KindInt},
		{Name: "o_entry_d", Kind: spi.KindInt},
		{Name: "o_carrier_id", Kind: spi.KindInt}, // 0 = not delivered
		{Name: "o_ol_cnt", Kind: spi.KindInt},
		{Name: "o_all_local", Kind: spi.KindInt},
	}, "o_w_id", "o_d_id", "o_id")

	orderLineSchema = spi.MustSchema(TOrderLine, []spi.Column{
		{Name: "ol_w_id", Kind: spi.KindInt},
		{Name: "ol_d_id", Kind: spi.KindInt},
		{Name: "ol_o_id", Kind: spi.KindInt},
		{Name: "ol_number", Kind: spi.KindInt},
		{Name: "ol_i_id", Kind: spi.KindInt},
		{Name: "ol_supply_w_id", Kind: spi.KindInt},
		{Name: "ol_delivery_d", Kind: spi.KindInt}, // 0 = not delivered
		{Name: "ol_quantity", Kind: spi.KindInt},
		{Name: "ol_amount", Kind: spi.KindInt},
		{Name: "ol_dist_info", Kind: spi.KindString},
	}, "ol_w_id", "ol_d_id", "ol_o_id", "ol_number")

	itemSchema = spi.MustSchema(TItem, []spi.Column{
		{Name: "i_id", Kind: spi.KindInt, Fixed: true},
		{Name: "i_im_id", Kind: spi.KindInt, Fixed: true},
		{Name: "i_name", Kind: spi.KindString, Fixed: true},
		{Name: "i_price", Kind: spi.KindInt, Fixed: true},
		{Name: "i_data", Kind: spi.KindString, Fixed: true},
	}, "i_id")

	stockSchema = spi.MustSchema(TStock, []spi.Column{
		{Name: "s_w_id", Kind: spi.KindInt},
		{Name: "s_i_id", Kind: spi.KindInt},
		{Name: "s_quantity", Kind: spi.KindInt},
		{Name: "s_dist_info", Kind: spi.KindString},
		{Name: "s_ytd", Kind: spi.KindInt},
		{Name: "s_order_cnt", Kind: spi.KindInt},
		{Name: "s_remote_cnt", Kind: spi.KindInt},
		{Name: "s_data", Kind: spi.KindString},
	}, "s_w_id", "s_i_id")
)

// CreateSchema builds the nine TPC-C tables in db with the partition
// granules the decomposition relies on:
//
//   - orders is partitioned per district (the unit order-status scans and
//     new-order appends to — the page-lock analogue);
//   - order_line is partitioned per order (the unit the interstep
//     assertions quantify over);
//   - new_order is deliberately NOT partitioned: delivery pops the head of
//     the queue while new-order appends at the tail, and in Ingres those
//     land on different index pages, so they must not collide on a shared
//     granule. Claims and inserts use row locks via the by_dist index.
//
// Secondary indexes support the customer-by-last-name, orders-by-customer
// and queue-head lookups.
func CreateSchema(db *core.DB) error {
	if _, err := db.CreateTable(warehouseSchema); err != nil {
		return err
	}
	if _, err := db.CreateTable(districtSchema); err != nil {
		return err
	}
	ct, err := db.CreateTable(customerSchema)
	if err != nil {
		return err
	}
	if err := ct.AddIndex(spi.IndexDef{
		Name: IdxCustomerByLast, Columns: []string{"c_w_id", "c_d_id", "c_last"},
	}); err != nil {
		return err
	}
	if _, err := db.CreateTable(historySchema); err != nil {
		return err
	}
	nt, err := db.CreateTable(newOrderSchema)
	if err != nil {
		return err
	}
	if err := nt.AddIndex(spi.IndexDef{
		Name: IdxNewOrderByDist, Columns: []string{"no_w_id", "no_d_id"},
	}); err != nil {
		return err
	}
	ot, err := db.CreateTable(ordersSchema, "o_w_id", "o_d_id")
	if err != nil {
		return err
	}
	if err := ot.AddIndex(spi.IndexDef{
		Name: IdxOrdersByCust, Columns: []string{"o_w_id", "o_d_id", "o_c_id"},
	}); err != nil {
		return err
	}
	if _, err := db.CreateTable(orderLineSchema, "ol_w_id", "ol_d_id", "ol_o_id"); err != nil {
		return err
	}
	if _, err := db.CreateTable(itemSchema); err != nil {
		return err
	}
	if _, err := db.CreateTable(stockSchema); err != nil {
		return err
	}
	return nil
}
