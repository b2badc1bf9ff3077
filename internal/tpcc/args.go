package tpcc

// Argument structs double as the transactions' work areas (§3.4, §5): steps
// record into them the state a compensating step needs (assigned order
// number, quantities actually taken from stock, claimed orders). codec.go
// serializes them — into the end-of-step records so crash recovery can
// compensate, and identically wherever else a record leaves the process.

import "accdb/internal/spi"

// OrderLineReq is one requested line of a new-order.
type OrderLineReq struct {
	ItemID   int64
	SupplyW  int64
	Quantity int64
}

// NewOrderArgs parameterizes a new-order transaction.
type NewOrderArgs struct {
	WID, DID, CID int64
	Lines         []OrderLineReq
	// InvalidItem makes the last line reference a nonexistent item, forcing
	// the 1% rollback the benchmark requires (§2.4.1.4), which under the ACC
	// exercises compensation: the abort happens while ordering the final
	// item, after earlier lines committed their steps.
	InvalidItem bool
	// FailFinal rolls back in the finish step instead — after every line and
	// any remote-stock shot committed. The spec's rollback happens at the end
	// of the transaction; in a partitioned deployment this is the variant
	// that forces the coordinator's cross-partition compensation path.
	FailFinal bool

	// Work area, filled by the forward steps.
	ONum      int64
	WTax      int64
	DTax      int64
	CDiscount int64
	Filled    []int64 // per line: stock quantity deducted
	Amounts   []int64 // per line: ol_amount
	Total     int64

	oKey cachedOrderKey // A_NO_OPEN's Covers; not work area, so not encoded
}

// cachedOrderKey is the primary key of order (w, d, o) for an assertion's
// Covers, built once per order number o (never 0) instead of per lock request.
type cachedOrderKey struct {
	o   int64
	key spi.Key
}

func (k *cachedOrderKey) of(w, d, o int64) spi.Key {
	if k.o != o {
		k.o, k.key = o, spi.EncodeKey(i64(w), i64(d), i64(o))
	}
	return k.key
}

// PaymentArgs parameterizes a payment transaction. The customer is selected
// by last name when CLast is non-empty (60% of the time per the benchmark),
// by id otherwise.
type PaymentArgs struct {
	WID, DID   int64
	CWID, CDID int64
	CID        int64
	CLast      string
	Amount     int64
	HID        int64
	Date       int64

	// Work area.
	ResolvedCID int64
}

// DeliveryArgs parameterizes a delivery transaction over all districts of a
// warehouse.
type DeliveryArgs struct {
	WID     int64
	Carrier int64
	Date    int64

	// Work area, one slot per district (index d-1).
	Claimed   []int64 // claimed o_id, 0 = district had no pending order
	Amounts   []int64 // order total credited to the customer
	Customers []int64 // customer of the claimed order

	claimKeys []cachedOrderKey // per district, A_DLV_CLAIM's Covers; not work area
}

func (a *DeliveryArgs) districts() int { return len(a.Claimed) }

// OrderStatusArgs parameterizes an order-status transaction.
type OrderStatusArgs struct {
	WID, DID int64
	CID      int64
	CLast    string
}

// StockLevelArgs parameterizes a stock-level transaction; Orders is the
// number of most-recent orders to examine (the spec's 20, scaled).
type StockLevelArgs struct {
	WID, DID  int64
	Threshold int64
	Orders    int64
}
