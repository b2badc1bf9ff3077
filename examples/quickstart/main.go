// Quickstart: a minimal bank built on the assertional concurrency control.
//
// It shows the whole public surface in one file: declare a schema, register
// the design-time interference tables, decompose a transaction into steps
// with an interstep assertion and a compensating step, run it under the ACC,
// and watch a legacy (undecomposed) transaction stay fully isolated.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	_ "accdb/internal/backends"
	"accdb/internal/core"
	"accdb/internal/interference"
	"accdb/internal/spi"
)

func main() {
	// 1. Schema: a single accounts table.
	db := core.NewDB()
	accounts := db.MustCreateTable(spi.MustSchema("accounts", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "balance", Kind: spi.KindInt},
	}, "id"))
	for id := 1; id <= 4; id++ {
		if err := accounts.Insert(spi.Row{spi.Int(id), spi.I64(1000)}); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Design time: register transaction, step and assertion types and
	// declare the interference analysis. transfer is decomposed into a
	// debit step and a credit step; between them the assertion "the debited
	// money is in flight to the target account" must stay true. Another
	// transfer's steps can never invalidate it (they only move their own
	// money), so transfers interleave freely; an audit is undecomposed and
	// must see no intermediate state.
	b := interference.NewBuilder()
	transferTxn := b.TxnType("transfer", 2)
	debit := b.StepType("transfer/debit")
	credit := b.StepType("transfer/credit")
	csTransfer := b.StepType("transfer/compensate")
	inFlight := b.Assertion("A_IN_FLIGHT")
	for _, s := range []interference.StepTypeID{debit, credit, csTransfer} {
		b.NoInterference(s, inFlight)
		b.AllowInterleaveEverywhere(s, transferTxn)
	}
	tables := b.Build()

	// 3. Engine over the tables; the baseline mode would run the same code
	// serializably.
	eng := core.New(db, tables, core.WithMode(core.ModeACC))

	balCol := accounts.Schema().MustCol("balance")
	type transferArgs struct{ from, to, amount int64 }
	add := func(tc *core.Ctx, id, delta int64) error {
		return tc.Update("accounts", []spi.Value{spi.I64(id)}, func(row spi.Row) error {
			row[balCol] = spi.I64(row[balCol].Int64() + delta)
			return nil
		})
	}

	aInFlight := &core.Assertion{
		ID:   inFlight,
		Name: "A_IN_FLIGHT",
		Covers: func(args any, item spi.Item) bool {
			a := args.(*transferArgs)
			return item.Table == "accounts" && item.Level == spi.LevelRow &&
				item.Key == spi.EncodeKey(spi.I64(a.from))
		},
	}

	eng.MustRegister(&core.TxnType{
		Name: "transfer",
		ID:   transferTxn,
		Steps: []core.Step{
			{
				Name: "debit", Type: debit,
				Body: func(tc *core.Ctx) error {
					a := tc.Args().(*transferArgs)
					return add(tc, a.from, -a.amount)
				},
			},
			{
				Name: "credit", Type: credit,
				Pre: []*core.Assertion{aInFlight},
				Body: func(tc *core.Ctx) error {
					a := tc.Args().(*transferArgs)
					return add(tc, a.to, a.amount)
				},
			},
		},
		Comp: &core.Compensation{
			Type: csTransfer,
			Body: func(tc *core.Ctx, completed int) error {
				a := tc.Args().(*transferArgs)
				if completed >= 1 {
					return add(tc, a.from, a.amount) // return the debited money
				}
				return nil
			},
		},
	})

	// 4. Run transfers concurrently; between a transfer's steps, other
	// transfers proceed (locks were released), yet the audit below always
	// balances. A transfer whose credit step loses a deadlock after its debit
	// step completed is compensated — its debit returned — which is a correct
	// outcome, so it is counted rather than fatal.
	var wg sync.WaitGroup
	var compensated atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				args := &transferArgs{
					from:   int64(i%4 + 1),
					to:     int64((i+1)%4 + 1),
					amount: 7,
				}
				if err := eng.Run("transfer", args); core.IsCompensated(err) {
					compensated.Add(1)
				} else if err != nil {
					log.Fatal(err)
				}
			}
		}(i)
	}
	wg.Wait()

	// 5. A legacy audit: undecomposed, so the ACC isolates it completely —
	// it can never observe money in flight.
	var total int64
	err := eng.RunLegacy("audit", func(tc *core.Ctx) error {
		total = 0
		return tc.Scan("accounts", func(row spi.Row) error {
			total += row[balCol].Int64()
			return nil
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	st := eng.Snapshot()
	fmt.Printf("total balance after %d commits and %d compensated transfers: %d (want 4000)\n",
		st.Commits, compensated.Load(), total)
	if total != 4000 {
		log.Fatal("quickstart: money was lost — semantic correctness violated")
	}
	fmt.Println("ok: every transfer met its specification and the invariant held")
}
