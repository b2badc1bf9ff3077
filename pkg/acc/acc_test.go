package acc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
	"accdb/pkg/acc"
)

// moveSys is a minimal two-step system built through the public facade: a
// "move" transaction journals its intent (step 1), then updates an account
// row (step 2); compensation deletes the journal entry. A one-step "tally"
// reads both tables.
type moveSys struct {
	eng  *acc.Engine
	comp interference.StepTypeID
}

type moveArgs struct {
	ID      int64
	Account int64
	// BeforeUpdate runs at the top of step 2, after step 1 is durable.
	BeforeUpdate func()
	// Abort makes step 2 request a rollback instead of updating.
	Abort bool
}

// tallyArgs receives what a tally read: the journal's size and the sum of
// the balances.
type tallyArgs struct {
	Journal, Balance int64
}

func newMoveSys(t *testing.T, opts ...acc.DBOption) *moveSys {
	t.Helper()
	db := acc.NewDB(opts...)
	accounts := db.MustCreateTable(spi.MustSchema("accounts", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "balance", Kind: spi.KindInt},
	}, "id"))
	db.MustCreateTable(spi.MustSchema("journal", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "account", Kind: spi.KindInt},
	}, "id"))
	for i := 1; i <= 3; i++ {
		if err := accounts.Insert(spi.Row{spi.Int(i), spi.I64(100)}); err != nil {
			t.Fatal(err)
		}
	}

	b := interference.NewBuilder()
	txnMove := b.TxnType("move", 2)
	stJournal := b.StepType("journal")
	stUpdate := b.StepType("update")
	stComp := b.StepType("comp")
	txnTally := b.TxnType("tally", 1)
	stTally := b.StepType("tally")

	s := &moveSys{comp: stComp}
	s.eng = acc.New(db, b.Build(),
		acc.WithMode(acc.ModeACC),
		acc.WithWaitTimeout(10*time.Second),
	)
	s.eng.MustRegister(&acc.TxnType{
		Name: "move",
		ID:   txnMove,
		Steps: []acc.Step{
			{
				Name: "journal", Type: stJournal,
				Body: func(tc *acc.Ctx) error {
					a := tc.Args().(*moveArgs)
					return tc.Insert("journal", spi.Row{
						spi.I64(a.ID), spi.I64(a.Account),
					})
				},
			},
			{
				Name: "update", Type: stUpdate,
				Body: func(tc *acc.Ctx) error {
					a := tc.Args().(*moveArgs)
					if a.BeforeUpdate != nil {
						a.BeforeUpdate()
					}
					if a.Abort {
						return acc.ErrUserAbort
					}
					return tc.Update("accounts", []spi.Value{spi.I64(a.Account)},
						func(row spi.Row) error {
							row[1] = spi.I64(row[1].Int64() + 1)
							return nil
						})
				},
			},
		},
		Comp: &acc.Compensation{
			Type: stComp,
			Body: func(tc *acc.Ctx, completed int) error {
				a := tc.Args().(*moveArgs)
				if completed >= 1 {
					return tc.Delete("journal", spi.I64(a.ID))
				}
				return nil
			},
		},
	})
	s.eng.MustRegister(&acc.TxnType{
		Name: "tally",
		ID:   txnTally,
		Steps: []acc.Step{{
			Name: "tally", Type: stTally,
			Body: func(tc *acc.Ctx) error {
				a := tc.Args().(*tallyArgs)
				*a = tallyArgs{}
				if err := tc.Scan("journal", func(spi.Row) error {
					a.Journal++
					return nil
				}); err != nil {
					return err
				}
				return tc.Scan("accounts", func(row spi.Row) error {
					a.Balance += row[1].Int64()
					return nil
				})
			},
		}},
	})
	return s
}

// TestExecCancelCompensates drives the facade's headline contract: a
// caller that cancels its context while the transaction is blocked in a lock
// wait gets the wait aborted, the completed prefix compensated (§3.4), and
// every lock released.
func TestExecCancelCompensates(t *testing.T) {
	s := newMoveSys(t)

	// A legacy transaction camps on account 1's write spi.
	held := make(chan struct{})
	release := make(chan struct{})
	blockerDone := make(chan error, 1)
	go func() {
		blockerDone <- s.eng.RunLegacy("blocker", func(tc *acc.Ctx) error {
			err := tc.Update("accounts", []spi.Value{spi.I64(1)},
				func(row spi.Row) error { return nil })
			if err != nil {
				return err
			}
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	// The move journals (step 1 commits its end-of-step record), then
	// blocks behind the blocker's X lock in step 2. Cancel it there.
	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan struct{})
	go func() {
		<-waiting
		time.Sleep(20 * time.Millisecond) // let the wait actually park
		cancel()
	}()
	err := s.eng.Exec(ctx, acc.Request{Name: "move", Args: &moveArgs{
		ID: 7, Account: 1,
		BeforeUpdate: func() { close(waiting) },
	}})
	close(release)
	if berr := <-blockerDone; berr != nil {
		t.Fatalf("blocker: %v", berr)
	}

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if !acc.IsCompensated(err) {
		t.Fatalf("want compensated outcome, got %v", err)
	}
	if !errors.Is(err, acc.ErrAborted) {
		t.Fatalf("compensated outcome must match ErrAborted, got %v", err)
	}
	if acc.Retryable(err) {
		t.Fatalf("a cancelled, compensated transaction must not be retryable: %v", err)
	}
	if got := s.eng.Snapshot().Compensations; got != 1 {
		t.Fatalf("compensations = %d, want 1", got)
	}

	// The journal entry was compensated away and all locks released: a
	// fresh run over the same rows commits promptly.
	if err := s.eng.Run("move", &moveArgs{ID: 8, Account: 1}); err != nil {
		t.Fatalf("post-cancel run: %v", err)
	}
	var journaled int
	err = s.eng.RunLegacy("count", func(tc *acc.Ctx) error {
		journaled = 0
		return tc.Scan("journal", func(spi.Row) error {
			journaled++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if journaled != 1 {
		t.Fatalf("journal rows = %d, want 1 (cancelled entry compensated away)", journaled)
	}
}

// TestExecCancelBeforeExposure cancels during step 1: nothing is
// exposed yet, so the engine undoes in place and propagates the bare
// cancellation — no compensation, no user-abort accounting.
func TestExecCancelBeforeExposure(t *testing.T) {
	s := newMoveSys(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.eng.Exec(ctx, acc.Request{Name: "move", Args: &moveArgs{ID: 9, Account: 2}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if acc.IsCompensated(err) {
		t.Fatalf("nothing completed, nothing to compensate: %v", err)
	}
	st := s.eng.Snapshot()
	if st.Compensations != 0 || st.UserAborts != 0 {
		t.Fatalf("stats = %+v, want no compensations and no user aborts", st)
	}
}

// TestFacadeErrors pins the taxonomy behavior callers rely on.
func TestFacadeErrors(t *testing.T) {
	s := newMoveSys(t)

	err := s.eng.Run("no-such-type", nil)
	if !errors.Is(err, acc.ErrUnknownTxnType) {
		t.Fatalf("want ErrUnknownTxnType, got %v", err)
	}

	if !acc.Retryable(acc.ErrDeadlockVictim) || !acc.Retryable(acc.ErrLockTimeout) {
		t.Fatal("deadlock and lock-timeout outcomes must be retryable")
	}
	for _, err := range []error{nil, acc.ErrUserAbort, acc.ErrUnknownTxnType, acc.ErrEngineClosed, context.Canceled} {
		if acc.Retryable(err) {
			t.Fatalf("%v must not be retryable", err)
		}
	}
	// A compensated rollback is final even when its cause was a deadlock.
	comp := &acc.CompensatedError{Txn: "move", Cause: acc.ErrDeadlockVictim}
	if acc.Retryable(comp) {
		t.Fatal("compensated rollback must not be retryable")
	}
	if !errors.Is(comp, acc.ErrAborted) {
		t.Fatal("compensated rollback must match ErrAborted")
	}

	if err := s.eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.eng.Run("move", &moveArgs{ID: 10, Account: 3}); !errors.Is(err, acc.ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed after Close, got %v", err)
	}
}
