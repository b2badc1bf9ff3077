// Recovery walkthrough: crash a transfer mid-flight with a deterministic
// fault injection, restart over the surviving log segments, and watch
// recovery compensate the half-done transaction (DESIGN.md §10).
//
// The demo builds the quickstart bank over a disk-backed WAL and arms the
// core.commit.force.crash fault point: the process dies at the commit record.
// Step boundaries are appended, not forced — only the reply waits for the
// disk — so whether the debit step survives depends on whether some other
// session's group commit carried its end-of-step record to disk first; the
// demo plays that session by hand. The commit record is also the final
// step's end-of-step record, so the log that survives says "debit completed,
// credit in flight", never "both steps completed, not committed". The doomed
// transfer is answered with ErrLogFailed, not OK. Then the log is reopened in
// a "new process": analysis finds the pending transaction, redo replays its
// completed step, the in-flight credit is discarded, and a compensating step
// — run under re-acquired exposure and reservation locks — returns the
// debited money.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	_ "accdb/internal/backends"
	"accdb/internal/core"
	"accdb/internal/fault"
	"accdb/internal/interference"
	"accdb/internal/spi"
	"accdb/internal/wal"
)

type transferArgs struct {
	From, To, Amount int64
	// beforeCredit, when set, runs at the start of the credit step: after the
	// debit step appended its end-of-step record and gave up its locks.
	beforeCredit func()
}

// bank is one "process": base state freshly loaded (the archive copy), the
// log reopened from dir (the surviving disk).
type bank struct {
	db  *core.DB
	eng *core.Engine
	log *wal.Log
	bal int // balance column index
}

func build(dir string) (*bank, error) {
	db := core.NewDB()
	accounts, err := db.CreateTable(spi.MustSchema("accounts", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "balance", Kind: spi.KindInt},
	}, "id"))
	if err != nil {
		return nil, err
	}
	for id := 1; id <= 2; id++ {
		if err := accounts.Insert(spi.Row{spi.Int(id), spi.I64(1000)}); err != nil {
			return nil, err
		}
	}

	b := interference.NewBuilder()
	transferTxn := b.TxnType("transfer", 2)
	debit := b.StepType("transfer/debit")
	credit := b.StepType("transfer/credit")
	comp := b.StepType("transfer/compensate")
	inFlight := b.Assertion("A_IN_FLIGHT")
	for _, s := range []interference.StepTypeID{debit, credit, comp} {
		b.NoInterference(s, inFlight)
		b.AllowInterleaveEverywhere(s, transferTxn)
	}
	tables := b.Build()

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	eng := core.New(db, tables, core.WithMode(core.ModeACC), core.WithWAL(l))

	balCol := accounts.Schema().MustCol("balance")
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
				item.Key == spi.EncodeKey(spi.I64(a.From))
		},
	}
	eng.MustRegister(&core.TxnType{
		Name: "transfer",
		ID:   transferTxn,
		Steps: []core.Step{
			{Name: "debit", Type: debit, Body: func(tc *core.Ctx) error {
				a := tc.Args().(*transferArgs)
				return add(tc, a.From, -a.Amount)
			}},
			{Name: "credit", Type: credit, Pre: []*core.Assertion{aInFlight},
				Body: func(tc *core.Ctx) error {
					a := tc.Args().(*transferArgs)
					if a.beforeCredit != nil {
						a.beforeCredit()
					}
					return add(tc, a.To, a.Amount)
				}},
		},
		Comp: &core.Compensation{
			Type: comp,
			Body: func(tc *core.Ctx, completed int) error {
				a := tc.Args().(*transferArgs)
				if completed >= 1 {
					return add(tc, a.From, a.Amount) // undo the debit
				}
				return nil
			},
		},
		// Recovery rebuilds the compensation's input from the work area the
		// end-of-step record carried to disk — so args must round-trip.
		AppendArgs: func(dst []byte, args any) []byte {
			a := args.(*transferArgs)
			return spi.MarshalRow(dst, spi.Row{
				spi.I64(a.From), spi.I64(a.To), spi.I64(a.Amount),
			})
		},
		DecodeArgs: func(data []byte) (any, error) {
			row, _, err := spi.UnmarshalRow(data)
			if err != nil {
				return nil, err
			}
			return &transferArgs{From: row[0].Int64(), To: row[1].Int64(), Amount: row[2].Int64()}, nil
		},
	})
	return &bank{db: db, eng: eng, log: l, bal: balCol}, nil
}

func (b *bank) balance(id int64) int64 {
	row, err := b.db.Table("accounts").Get(spi.EncodeKey(spi.I64(id)))
	if err != nil {
		log.Fatal(err)
	}
	return row[b.bal].Int64()
}

func (b *bank) report(when string) int64 {
	a1, a2 := b.balance(1), b.balance(2)
	fmt.Printf("%-28s account1=%-5d account2=%-5d total=%d\n", when, a1, a2, a1+a2)
	return a1 + a2
}

func main() {
	dir, err := os.MkdirTemp("", "accdb-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Process 1: commit one transfer, then crash inside a second. ----
	b1, err := build(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := b1.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 100}); err != nil {
		log.Fatal(err)
	}
	b1.report("after committed transfer:")

	// Arm the fault: the very next commit record "kills the process". The
	// debit's end-of-step record was only appended; another session's group
	// commit (played here by the Force in beforeCredit) makes it durable, the
	// credit step and the commit record never are.
	ctrl := fault.NewController(1)
	ctrl.Arm("core.commit.force.crash", fault.Spec{Effect: fault.Crash, Nth: 1})
	ctrl.Activate()
	// The doomed process keeps running in memory — that is the simulation
	// model: durability froze at the crash instant, so nothing it does from
	// here on survives the "kill". Its in-memory state is the state that is
	// about to be lost — and its client is never told OK: the one durability
	// wait before the reply ends on a dead log.
	err = b1.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 250, beforeCredit: b1.log.Force})
	fault.Deactivate()
	if ctrl.FiredPoint() == "" {
		log.Fatal("expected the injected crash to fire")
	}
	if !errors.Is(err, core.ErrLogFailed) {
		log.Fatalf("the doomed transfer was answered %v, want ErrLogFailed", err)
	}
	fmt.Printf("simulated crash at %q: durable log ends inside the credit step\n", ctrl.FiredPoint())
	fmt.Printf("the doomed transfer's client was told: %v\n", err)
	b1.report("doomed process saw:")
	b1.log.Close()

	// ---- Process 2: restart — fresh base state, reopened log, recover. ----
	b2, err := build(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer b2.log.Close()
	if tt := b2.log.TornTail(); tt != nil && !tt.Clean() {
		log.Fatal(errors.New("log corrupt beyond a crash tail"))
	}
	res, err := b2.eng.RecoverLog(b2.log)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d committed, %d compensated", res.Committed, len(res.CompensatedTxns))
	for _, c := range res.CompensatedTxns {
		a := c.Args.(*transferArgs)
		fmt.Printf(" (txn %d %s: %d->%d amount %d, undone)", c.ID, c.Type, a.From, a.To, a.Amount)
	}
	fmt.Println()
	if total := b2.report("after recovery:"); total != 2000 {
		log.Fatal("recovery lost money — conservation violated")
	}

	// The recovered engine is live: it keeps appending to the same log.
	if err := b2.eng.Run("transfer", &transferArgs{From: 2, To: 1, Amount: 40}); err != nil {
		log.Fatal(err)
	}
	if total := b2.report("after post-recovery work:"); total != 2000 {
		log.Fatal("post-recovery transfer lost money")
	}
	fmt.Println("ok: the half-done transfer was compensated, committed work survived")
}
