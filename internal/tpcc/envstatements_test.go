package tpcc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/spi"
)

// envStatements is the number of statements the simulated testbed charges
// for four transactions of each TPC-C type (load seed 42, draws from seed 1,
// the default scale), and for one new-order rolled back on its last line,
// under each scheduler. Every statement sleeps the testbed's service time, so
// a statement the engine stopped bracketing would show as a fake speed-up in
// the paper's figures and one bracketed twice as a fake slow-down; these
// counts may change only with the transactions' SQL.
var envStatements = map[core.Mode]map[string]uint64{
	core.ModeACC: {
		"new_order": 173, "payment": 29, "delivery": 284, "order_status": 16, "stock_level": 12,
		"new_order_rollback": 35,
	},
	core.ModeBaseline: {
		"new_order": 122, "payment": 21, "delivery": 204, "order_status": 16, "stock_level": 12,
		"new_order_rollback": 16,
	},
}

// TestEnvStatementsPerType runs the TPC-C types one after another through an
// engine on core.Env and pins the statements each charges: the count the
// paper's testbed multiplies by its per-statement service time.
func TestEnvStatementsPerType(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		db := core.NewDB()
		if err := CreateSchema(db); err != nil {
			t.Fatal(err)
		}
		scale := DefaultScale()
		if err := Load(db, scale, 42); err != nil {
			t.Fatal(err)
		}
		types := BuildTypes()
		env := core.NewEnv(1, 0, 0)
		eng := core.New(db, types.Tables, core.WithMode(mode),
			core.WithWaitTimeout(20*time.Second), core.WithEnv(env))
		if _, err := Register(eng, types, scale); err != nil {
			t.Fatal(err)
		}
		w := NewWorkload(eng, DefaultWorkloadConfig(scale))
		r := rand.New(rand.NewSource(1))
		rollback := w.NewOrderArgs(r)
		rollback.InvalidItem = true
		rollback.Lines[len(rollback.Lines)-1].ItemID = int64(scale.Items) + 1
		for _, c := range []struct {
			name, typ string
			draw      func() any
		}{
			{"new_order", "new_order", func() any { return w.NewOrderArgs(r) }},
			{"payment", "payment", func() any { return w.PaymentArgs(r) }},
			{"delivery", "delivery", func() any { return w.DeliveryArgs(r) }},
			{"order_status", "order_status", func() any { return w.OrderStatusArgs(r) }},
			{"stock_level", "stock_level", func() any { return w.StockLevelArgs(r, 0) }},
			{"new_order_rollback", "new_order", func() any { return rollback }},
		} {
			runs := 4
			if c.name == "new_order_rollback" {
				runs = 1
			}
			before := env.Statements()
			for i := 0; i < runs; i++ {
				err := eng.Run(c.typ, c.draw())
				if err != nil && !core.IsCompensated(err) && !errors.Is(err, core.ErrUserAbort) {
					t.Fatalf("%v %s: %v", mode, c.name, err)
				}
			}
			got := env.Statements() - before
			if want := envStatements[mode][c.name]; got != want {
				t.Errorf("%v %s: %d statements, want %d", mode, c.name, got, want)
			}
		}
	}
}

// TestOrderStatusReadsCustomerOnce: an order-status that selects its customer
// by last name reads the row the name lookup chose and does not read it
// again, so by name and by id it is three statements on core.Env — the
// customer, the customer's orders, the latest order's lines — and touches
// the customer row once.
func TestOrderStatusReadsCustomerOnce(t *testing.T) {
	db := core.NewDB()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	scale := DefaultScale()
	if err := Load(db, scale, 42); err != nil {
		t.Fatal(err)
	}
	types := BuildTypes()
	env := core.NewEnv(1, 0, 0)
	eng := core.New(db, types.Tables, core.WithEnv(env), core.WithRecordHistory(true))
	if _, err := Register(eng, types, scale); err != nil {
		t.Fatal(err)
	}
	const did, cid = 3, 7
	pk := spi.EncodeKey(i64(1), i64(did), i64(cid))
	crow, err := db.Table(TCustomer).Get(pk)
	if err != nil {
		t.Fatal(err)
	}
	byName := &OrderStatusArgs{WID: 1, DID: did, CID: cid + 1, CLast: crow[customerSchema.MustCol("c_last")].Text()}
	byID := &OrderStatusArgs{WID: 1, DID: did, CID: cid}
	for _, a := range []*OrderStatusArgs{byName, byID} {
		accesses := len(eng.History().Accesses)
		before := env.Statements()
		if err := eng.Run("order_status", a); err != nil {
			t.Fatal(err)
		}
		if got := env.Statements() - before; got != 3 {
			t.Errorf("order-status by %q/%d: %d statements, want 3", a.CLast, a.CID, got)
		}
		reads := 0
		for _, acc := range eng.History().Accesses[accesses:] {
			if acc.Table == TCustomer && acc.PK == pk {
				reads++
			}
		}
		if reads != 1 {
			t.Errorf("order-status by %q/%d: read customer %d %d times, want once", a.CLast, a.CID, cid, reads)
		}
	}
}
