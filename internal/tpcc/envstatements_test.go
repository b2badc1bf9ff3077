package tpcc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/sim"
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
		"new_order": 220, "payment": 29, "delivery": 284, "order_status": 16, "stock_level": 48,
		"new_order_rollback": 40,
	},
	core.ModeBaseline: {
		"new_order": 169, "payment": 21, "delivery": 204, "order_status": 16, "stock_level": 48,
		"new_order_rollback": 21,
	},
}

// TestEnvStatementsPerType runs the TPC-C types one after another through an
// engine on sim.Env and pins the statements each charges: the count the
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
		env := sim.NewEnv(1, 0, 0)
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
