package tpcc

import (
	"accdb/internal/interference"
)

// Types bundles the design-time artifacts of the TPC-C decomposition: the
// transaction, step and assertion identifiers and the interference tables
// built from the analysis below. This is the product of §5.1's "each
// transaction type within the TPC-C benchmark was analyzed and decomposed
// into steps"; it defines eleven distinct forward step types, as the paper
// reports, plus three compensating step types.
type Types struct {
	Tables *interference.Tables

	// Transaction types.
	NewOrder, Payment, Delivery, OrderStatus, StockLevel interference.TxnTypeID

	// Shot transaction types of the partitioned deployment (DESIGN.md §16):
	// no_stock is the remote-stock shot of a cross-partition new-order, and
	// no_stock_undo its compensating reversal.
	NoStock, NoStockUndo interference.TxnTypeID

	// Forward step types (eleven).
	NO1, NO2, NOF interference.StepTypeID // new-order: setup, per-line, finalize
	P1, P2, P3    interference.StepTypeID // payment: customer+history, district, warehouse
	D1, D2, DF    interference.StepTypeID // delivery: claim, apply (per district), finalize
	OS            interference.StepTypeID // order-status (single step)
	SL            interference.StepTypeID // stock-level (single step)

	// Partitioned-deployment step types: NOR is new-order's remote-shot hook
	// step (no data access of its own), NOS the remote stock update, NOSU
	// its undo.
	NOR, NOS, NOSU interference.StepTypeID

	// Compensating step types.
	CSNewOrder, CSPayment, CSDelivery interference.StepTypeID

	// Interstep assertion types.
	ANoOpen   interference.AssertionID // "order o is open and undelivered, has no lines yet, and has taken stock for lines ≤ i"
	ADlvClaim interference.AssertionID // "claimed order o is delivered-in-progress by me"
}

// BuildTypes runs the design-time analysis and returns the tables.
//
// The analysis (following §4 and §5.1):
//
// Assertional interference — both assertions range only over items private
// to their owning instance (its own orders/new_order rows and order_line
// partition), so the conservative default (every step type interferes) is
// kept: a conflict materializes at run time only when another transaction's
// step writes those very items, which is exactly the delivery-vs-open-order
// collision the assertions exist to block. No NoInterference entries are
// needed for concurrency, because the one-level ACC resolves instance
// identity at the items themselves.
//
// Interleaving (exposure) — this is where the measured concurrency comes
// from. The analysis proves which step types may observe another transaction
// type's intermediate state:
//
//   - new-order, payment and stock-level steps interleave freely with
//     new-order, payment and delivery: the district row conflict between
//     new-order (d_next_o_id) and payment (d_ytd) is the paper's worked
//     example of updates that do not interfere, warehouse w_ytd vs w_tax
//     reads likewise, stock updates commute, and stock-level is explicitly
//     permitted read-committed by the benchmark.
//   - delivery steps interleave with payment (commuting customer-balance
//     updates) but NOT with new-order: delivery must never claim a
//     half-entered order (that is assertion ANoOpen's job, backed by the
//     exposure rule).
//   - order-status interleaves with nothing (the benchmark demands
//     serializable reads), and undecomposed/legacy transactions are blocked
//     from all intermediate state by the conservative default.
func BuildTypes() *Types {
	b := interference.NewBuilder()
	t := &Types{}

	t.NewOrder = b.TxnType("new_order", 0) // step count varies per instance
	t.Payment = b.TxnType("payment", 3)    //
	t.Delivery = b.TxnType("delivery", 0)  // 2 per district + finalize
	t.OrderStatus = b.TxnType("order_status", 1)
	t.StockLevel = b.TxnType("stock_level", 1)
	t.NoStock = b.TxnType("no_stock", 1)
	t.NoStockUndo = b.TxnType("no_stock_undo", 1)

	t.NO1 = b.StepType("NO1/setup")
	t.NO2 = b.StepType("NO2/order-line")
	t.NOF = b.StepType("NOF/finalize")
	t.P1 = b.StepType("P1/customer")
	t.P2 = b.StepType("P2/district")
	t.P3 = b.StepType("P3/warehouse")
	t.D1 = b.StepType("D1/claim")
	t.D2 = b.StepType("D2/apply")
	t.DF = b.StepType("DF/finalize")
	t.OS = b.StepType("OS")
	t.SL = b.StepType("SL")
	t.NOR = b.StepType("NOR/remote-shots")
	t.NOS = b.StepType("NOS/remote-stock")
	t.NOSU = b.StepType("NOSU/remote-stock-undo")
	t.CSNewOrder = b.StepType("CS/new_order")
	t.CSPayment = b.StepType("CS/payment")
	t.CSDelivery = b.StepType("CS/delivery")

	t.ANoOpen = b.Assertion("A_NO_OPEN")
	t.ADlvClaim = b.Assertion("A_DLV_CLAIM")

	// Assertional interference. §4's analysis carries over: "no inter-step
	// assertion [of new_order] is interfered with by any step of another
	// instance of new_order" — each instance writes only its own order's
	// rows, whose numbers the district counter keeps distinct. The same
	// instance-distinctness argument clears payment (disjoint tables), the
	// read-only steps, and the compensations. What remains interfering with
	// A_NO_OPEN is exactly delivery (D1 claims and D2 rewrites an order,
	// and CS/delivery re-opens one) — the hazard the assertion exists for —
	// plus legacy steps via the conservative default.
	// The partitioned shot steps touch only stock rows (NOS/NOSU) or nothing
	// at all (NOR, pure coordination), none of which appear in either
	// assertion's footprint.
	safeNO := []interference.StepTypeID{
		t.NO1, t.NO2, t.NOF, t.NOR, t.NOS, t.NOSU, t.P1, t.P2, t.P3, t.OS, t.SL,
		t.CSNewOrder, t.CSPayment,
	}
	for _, s := range safeNO {
		b.NoInterference(s, t.ANoOpen)
	}
	// A_DLV_CLAIM: a claimed order is out of the queue, so no other delivery
	// can claim it and no new-order can collide with its (older) number.
	safeDLV := []interference.StepTypeID{
		t.NO1, t.NO2, t.NOF, t.NOR, t.NOS, t.NOSU, t.P1, t.P2, t.P3, t.OS, t.SL,
		t.D1, t.D2, t.DF, t.CSNewOrder, t.CSPayment, t.CSDelivery,
	}
	for _, s := range safeDLV {
		b.NoInterference(s, t.ADlvClaim)
	}

	// Interleaving permissions derived above. NOR/NOS ride with the new-order
	// family: a remote stock shot commutes with other stock updates exactly
	// as NO2 does, and the hook step reads no data at all. NOSU interleaves
	// everywhere for the same reason the compensating steps do — an undo
	// shot is compensation and must never wait out an exposure mark.
	free := []interference.StepTypeID{t.NO1, t.NO2, t.NOF, t.NOR, t.NOS, t.P1, t.P2, t.P3, t.SL}
	holders := []interference.TxnTypeID{t.NewOrder, t.Payment, t.Delivery, t.NoStock, t.NoStockUndo}
	for _, step := range free {
		for _, h := range holders {
			b.AllowInterleaveEverywhere(step, h)
		}
	}
	for _, step := range []interference.StepTypeID{t.D1, t.D2, t.DF} {
		b.AllowInterleaveEverywhere(step, t.Payment)
	}
	// Compensating steps touch only items their own forward steps wrote, so
	// another transaction's intermediate state cannot mislead them; they
	// must interleave everywhere or a compensation could block on a retained
	// exposure mark and never finish — the unresolvable-deadlock §3.4 rules
	// out. (A compensating delivery re-inserting a new_order row must not
	// wait out an open new-order's exposure on the queue partition, and vice
	// versa.)
	for _, cs := range []interference.StepTypeID{t.CSNewOrder, t.CSPayment, t.CSDelivery, t.NOSU} {
		for _, h := range holders {
			b.AllowInterleaveEverywhere(cs, h)
		}
	}

	t.Tables = b.Build()
	return t
}
