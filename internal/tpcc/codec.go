// The codecs of the TPC-C argument records. A transaction's argument record
// is its work area (§3.4, §5), and it crosses three boundaries: into the log
// in every end-of-step and shot-commit record (core.TxnType.AppendArgs), into
// the coordinator's decision record as a shot's payload (partition's
// encodePlan), and over the wire as a request's arguments and a response's
// result (internal/server, pkg/accclient). Each record type has exactly one
// codec value below and all three call sites go through it, so there is one
// layout:
//
//	int      zig-zag varint (encoding/binary AppendVarint)
//	bool     one byte, 0 or 1
//	string   uvarint length, then the bytes
//	[]int    uvarint count, then that many ints
//	lines    uvarint count, then per line ItemID, SupplyW, Quantity as ints
//
// with a record's fields in the order its codec lists them and nothing
// between or after them. The layout is free to change with the structs: no
// log outlives the binary that wrote it (accd refuses a used -wal-dir, the
// crash harness writes and replays with one build) and both ends of a
// connection link this file.
//
// Decode is the one place that faces bytes the program did not write — a
// client's frame, a log's tail. It reads through a saturating cursor into a
// pooled record (no intermediate row, no allocation once warm), rejects
// truncated and over-long input, and enforces the invariants the step bodies
// index by: a new-order's Filled and Amounts have one slot per line, a
// delivery's three vectors one slot per district each. A delivery's district
// count must also be the scale's, which only the registered type knows
// (dlvClaim).

package tpcc

import (
	"encoding/binary"
	"fmt"

	"accdb/internal/server/wire"
)

func putInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

func putBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func putStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func putInts(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

func putLines(dst []byte, lines []OrderLineReq) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(lines)))
	for _, l := range lines {
		dst = putInt(dst, l.ItemID)
		dst = putInt(dst, l.SupplyW)
		dst = putInt(dst, l.Quantity)
	}
	return dst
}

// maxElems bounds a decoded vector. Elements are variable-width, so a count
// the remaining bytes could hold may still ask for eight times their size in
// memory; no record comes near this many lines or districts.
const maxElems = 1<<16 - 1

// reader cursors through a record with saturating bounds checks: a failed
// read sets ok=false and every later read returns zero, so decode bodies
// stay straight-line and check once at the end (done).
type reader struct {
	data []byte
	ok   bool
}

func (r *reader) int() int64 {
	v, n := binary.Varint(r.data)
	if !r.ok || n <= 0 {
		r.ok = false
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) bool() bool {
	if !r.ok || len(r.data) == 0 || r.data[0] > 1 {
		r.ok = false
		return false
	}
	b := r.data[0] == 1
	r.data = r.data[1:]
	return b
}

// count reads an element count. Every element takes at least a byte, so a
// count beyond the bytes left is refused before anything is sized by it.
func (r *reader) count() int {
	v, n := binary.Uvarint(r.data)
	if !r.ok || n <= 0 || v > uint64(len(r.data)-n) || v > maxElems {
		r.ok = false
		return 0
	}
	r.data = r.data[n:]
	return int(v)
}

func (r *reader) str() string {
	n := r.count()
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// ints reads a vector into dst's storage; an empty one leaves a nil dst nil.
func (r *reader) ints(dst []int64) []int64 {
	dst = dst[:0]
	for n := r.count(); n > 0 && r.ok; n-- {
		dst = append(dst, r.int())
	}
	return dst
}

func (r *reader) lines(dst []OrderLineReq) []OrderLineReq {
	dst = dst[:0]
	for n := r.count(); n > 0 && r.ok; n-- {
		dst = append(dst, OrderLineReq{ItemID: r.int(), SupplyW: r.int(), Quantity: r.int()})
	}
	return dst
}

// done is every decoder's last line: the record was all there and nothing
// follows it.
func (r *reader) done() error {
	if !r.ok {
		return fmt.Errorf("tpcc: truncated or malformed argument record")
	}
	if len(r.data) != 0 {
		return fmt.Errorf("tpcc: %d trailing bytes in argument record", len(r.data))
	}
	return nil
}

// sameLen is the invariant of every record that carries work-area vectors:
// the step bodies index each of them by the positions of the record's lines
// or districts, so each must have exactly that many slots.
func sameLen(what string, want int, got ...[]int64) error {
	for _, v := range got {
		if len(v) != want {
			return fmt.Errorf("tpcc: %s work area has %d slots for %d entries", what, len(v), want)
		}
	}
	return nil
}

var newOrderCodec = &wire.ArgCodec{
	Name: "new_order",
	New:  func() any { return &NewOrderArgs{} },
	Reset: func(v any) {
		a := v.(*NewOrderArgs)
		*a = NewOrderArgs{Lines: a.Lines[:0], Filled: a.Filled[:0], Amounts: a.Amounts[:0]}
	},
	Encode: func(dst []byte, v any) []byte {
		a := v.(*NewOrderArgs)
		dst = putInt(dst, a.WID)
		dst = putInt(dst, a.DID)
		dst = putInt(dst, a.CID)
		dst = putInt(dst, a.ONum)
		dst = putInt(dst, a.WTax)
		dst = putInt(dst, a.DTax)
		dst = putInt(dst, a.CDiscount)
		dst = putInt(dst, a.Total)
		dst = putBool(dst, a.InvalidItem)
		dst = putBool(dst, a.FailFinal)
		dst = putLines(dst, a.Lines)
		dst = putInts(dst, a.Filled)
		return putInts(dst, a.Amounts)
	},
	Decode: func(data []byte, v any) error {
		a := v.(*NewOrderArgs)
		r := reader{data: data, ok: true}
		a.WID = r.int()
		a.DID = r.int()
		a.CID = r.int()
		a.ONum = r.int()
		a.WTax = r.int()
		a.DTax = r.int()
		a.CDiscount = r.int()
		a.Total = r.int()
		a.InvalidItem = r.bool()
		a.FailFinal = r.bool()
		a.Lines = r.lines(a.Lines)
		a.Filled = r.ints(a.Filled)
		a.Amounts = r.ints(a.Amounts)
		if err := r.done(); err != nil {
			return err
		}
		return sameLen("new_order", len(a.Lines), a.Filled, a.Amounts)
	},
}

var paymentCodec = &wire.ArgCodec{
	Name:  "payment",
	New:   func() any { return &PaymentArgs{} },
	Reset: func(v any) { *v.(*PaymentArgs) = PaymentArgs{} },
	Encode: func(dst []byte, v any) []byte {
		a := v.(*PaymentArgs)
		dst = putInt(dst, a.WID)
		dst = putInt(dst, a.DID)
		dst = putInt(dst, a.CWID)
		dst = putInt(dst, a.CDID)
		dst = putInt(dst, a.CID)
		dst = putStr(dst, a.CLast)
		dst = putInt(dst, a.Amount)
		dst = putInt(dst, a.HID)
		dst = putInt(dst, a.Date)
		return putInt(dst, a.ResolvedCID)
	},
	Decode: func(data []byte, v any) error {
		a := v.(*PaymentArgs)
		r := reader{data: data, ok: true}
		a.WID = r.int()
		a.DID = r.int()
		a.CWID = r.int()
		a.CDID = r.int()
		a.CID = r.int()
		a.CLast = r.str()
		a.Amount = r.int()
		a.HID = r.int()
		a.Date = r.int()
		a.ResolvedCID = r.int()
		return r.done()
	},
}

var deliveryCodec = &wire.ArgCodec{
	Name: "delivery",
	New:  func() any { return &DeliveryArgs{} },
	Reset: func(v any) {
		a := v.(*DeliveryArgs)
		*a = DeliveryArgs{Claimed: a.Claimed[:0], Amounts: a.Amounts[:0], Customers: a.Customers[:0]}
	},
	Encode: func(dst []byte, v any) []byte {
		a := v.(*DeliveryArgs)
		dst = putInt(dst, a.WID)
		dst = putInt(dst, a.Carrier)
		dst = putInt(dst, a.Date)
		dst = putInts(dst, a.Claimed)
		dst = putInts(dst, a.Amounts)
		return putInts(dst, a.Customers)
	},
	Decode: func(data []byte, v any) error {
		a := v.(*DeliveryArgs)
		r := reader{data: data, ok: true}
		a.WID = r.int()
		a.Carrier = r.int()
		a.Date = r.int()
		a.Claimed = r.ints(a.Claimed)
		a.Amounts = r.ints(a.Amounts)
		a.Customers = r.ints(a.Customers)
		if err := r.done(); err != nil {
			return err
		}
		return sameLen("delivery", len(a.Claimed), a.Amounts, a.Customers)
	},
}

var orderStatusCodec = &wire.ArgCodec{
	Name:  "order_status",
	New:   func() any { return &OrderStatusArgs{} },
	Reset: func(v any) { *v.(*OrderStatusArgs) = OrderStatusArgs{} },
	Encode: func(dst []byte, v any) []byte {
		a := v.(*OrderStatusArgs)
		dst = putInt(dst, a.WID)
		dst = putInt(dst, a.DID)
		dst = putInt(dst, a.CID)
		return putStr(dst, a.CLast)
	},
	Decode: func(data []byte, v any) error {
		a := v.(*OrderStatusArgs)
		r := reader{data: data, ok: true}
		a.WID = r.int()
		a.DID = r.int()
		a.CID = r.int()
		a.CLast = r.str()
		return r.done()
	},
}

var stockLevelCodec = &wire.ArgCodec{
	Name:  "stock_level",
	New:   func() any { return &StockLevelArgs{} },
	Reset: func(v any) { *v.(*StockLevelArgs) = StockLevelArgs{} },
	Encode: func(dst []byte, v any) []byte {
		a := v.(*StockLevelArgs)
		dst = putInt(dst, a.WID)
		dst = putInt(dst, a.DID)
		dst = putInt(dst, a.Threshold)
		return putInt(dst, a.Orders)
	},
	Decode: func(data []byte, v any) error {
		a := v.(*StockLevelArgs)
		r := reader{data: data, ok: true}
		a.WID = r.int()
		a.DID = r.int()
		a.Threshold = r.int()
		a.Orders = r.int()
		return r.done()
	},
}

// noStockCodec serves no_stock and no_stock_undo (the undo runs on the
// shot's own record). The coordinator is the only caller of a shot type —
// its record travels in the log and in the shot plan, never in a request —
// so this one codec stays out of the wire registry, and a client naming a
// shot type is answered StatusBadRequest like any type without a codec.
var noStockCodec = &wire.ArgCodec{
	Name: "no_stock",
	New:  func() any { return &NoStockArgs{} },
	Reset: func(v any) {
		a := v.(*NoStockArgs)
		*a = NoStockArgs{Lines: a.Lines[:0], Filled: a.Filled[:0]}
	},
	Encode: func(dst []byte, v any) []byte {
		a := v.(*NoStockArgs)
		dst = putInt(dst, a.WID)
		dst = putLines(dst, a.Lines)
		return putInts(dst, a.Filled)
	},
	Decode: func(data []byte, v any) error {
		a := v.(*NoStockArgs)
		r := reader{data: data, ok: true}
		a.WID = r.int()
		a.Lines = r.lines(a.Lines)
		a.Filled = r.ints(a.Filled)
		if err := r.done(); err != nil {
			return err
		}
		return sameLen("no_stock", len(a.Lines), a.Filled)
	},
}

func init() {
	for _, c := range []*wire.ArgCodec{newOrderCodec, paymentCodec, deliveryCodec, orderStatusCodec, stockLevelCodec} {
		wire.RegisterArgCodec(c)
	}
}
