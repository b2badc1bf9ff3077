package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/interference"
	"accdb/internal/server/wire"
	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/pkg/accclient"
)

// TestStatusOfNamesEveryOutcome: the wire status of each engine outcome has
// the outcome's name, and only the scheduling losses are retryable.
func TestStatusOfNamesEveryOutcome(t *testing.T) {
	for o := core.Outcome(0); o < core.NumOutcomes; o++ {
		st := statusOf[o]
		if st.String() != o.String() {
			t.Errorf("outcome %v is served as %v", o, st)
		}
		if want := o == core.OutcomeDeadlock || o == core.OutcomeLockTimeout; st.Retryable() != want {
			t.Errorf("outcome %v: wire retryable = %v", o, st.Retryable())
		}
	}
}

// fixedRunner is an engine whose every transaction ends with err.
type fixedRunner struct {
	tt    core.TxnType
	err   error
	execs atomic.Int64
}

func (r *fixedRunner) TypeBytes([]byte) *core.TxnType { return &r.tt }
func (r *fixedRunner) Closed() bool                   { return false }
func (r *fixedRunner) Close() error                   { return nil }

func (r *fixedRunner) Exec(context.Context, core.Request) error {
	r.execs.Add(1)
	return r.err
}

// serve starts a server over cfg on a loopback port and drains it when the
// test ends.
func serve(t *testing.T, cfg Config) net.Addr {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ln.Addr()
}

// TestFailedCompensationIsFinal: a compensation that could not finish may
// have left partial effects, so whatever its cause it is served as
// internal, and the client — whose default policy retries a lock timeout
// once — makes exactly one attempt.
func TestFailedCompensationIsFinal(t *testing.T) {
	for _, cause := range []error{core.ErrLockTimeout, core.ErrDeadlockVictim} {
		eng := &fixedRunner{tt: core.TxnType{Name: "move"},
			err: &core.CompensationFailedError{Txn: "move", Cause: cause}}
		an := trace.NewAnatomy(trace.AnatomyConfig{})
		addr := serve(t, Config{Engine: eng, Anatomy: an})
		cli, err := accclient.Dial(addr.String(), accclient.WithPoolSize(1))
		if err != nil {
			t.Fatal(err)
		}
		before := cli.Stats().Attempts // Dial's ping is one
		err = cli.Run(context.Background(), "move", &moveArgs{ID: 1, Account: 1})
		if err == nil || !strings.Contains(err.Error(), "("+wire.StatusInternal.String()+")") {
			t.Errorf("cause %v: client got %v, want an internal failure", cause, err)
		}
		if st := cli.Stats(); st.Attempts-before != 1 || st.Retries != 0 || eng.execs.Load() != 1 {
			t.Errorf("cause %v: %d attempts, %d executions; a failed compensation must not be resubmitted",
				cause, st.Attempts-before, eng.execs.Load())
		}
		cli.Close()
		waitFor(t, "the span", func() bool { return an.Finished() == 1 })
		if rec := an.Recent()[0]; rec.Status != "internal" {
			t.Errorf("cause %v: span status %q", cause, rec.Status)
		}
	}
}

// Behaviours of the "move" type outcomeEngine registers, selected by
// moveArgs.Account.
const (
	behaveCommit int64 = iota + 1
	behaveAbortFirst
	behaveAbortSecond
	behaveCompFails
	behaveBadArgs
	behaveWrite // run at the snapshot tier: a refused write
	behaveFail
	behaveWaitHeld // waits for the row the holder keeps locked
)

// outcomeEngine builds an engine with a two-step "move" type whose args
// pick how it ends, and a one-step "hold" type that keeps accounts row
// behaveWaitHeld locked until release is closed.
func outcomeEngine(t *testing.T, an *trace.Anatomy, release <-chan struct{}) *core.Engine {
	t.Helper()
	db := core.NewDB()
	accounts := db.MustCreateTable(spi.MustSchema("accounts", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "balance", Kind: spi.KindInt},
	}, "id"))
	for i := int64(1); i <= behaveWaitHeld; i++ {
		if err := accounts.Insert(spi.Row{spi.I64(i), spi.I64(100)}); err != nil {
			t.Fatal(err)
		}
	}
	b := interference.NewBuilder()
	txnMove, txnHold := b.TxnType("move", 2), b.TxnType("hold", 1)
	stFirst, stSecond, stComp, stHold := b.StepType("first"), b.StepType("second"), b.StepType("comp"), b.StepType("hold")
	// A 1ms lock-wait budget makes a held row a lock timeout once the
	// whole-transaction retries run out.
	eng := core.New(db, b.Build(), core.WithWaitTimeout(time.Millisecond), core.WithAnatomy(an))
	bump := func(tc *core.Ctx, id int64) error {
		return tc.Update("accounts", []spi.Value{spi.I64(id)}, func(row spi.Row) error {
			row[1] = spi.I64(row[1].Int64() + 1)
			return nil
		})
	}
	eng.MustRegister(&core.TxnType{
		Name: "move", ID: txnMove,
		Steps: []core.Step{
			{Name: "first", Type: stFirst, Body: func(tc *core.Ctx) error {
				a := tc.Args().(*moveArgs)
				switch a.Account {
				case behaveAbortFirst:
					return core.ErrUserAbort
				case behaveBadArgs:
					return fmt.Errorf("%w: account %d", core.ErrBadArgs, a.Account)
				case behaveFail:
					return errors.New("move: disk on fire")
				}
				return bump(tc, a.Account)
			}},
			{Name: "second", Type: stSecond, Body: func(tc *core.Ctx) error {
				switch tc.Args().(*moveArgs).Account {
				case behaveAbortSecond, behaveCompFails:
					return core.ErrUserAbort
				}
				return nil
			}},
		},
		Comp: &core.Compensation{Type: stComp, Body: func(tc *core.Ctx, _ int) error {
			if tc.Args().(*moveArgs).Account == behaveCompFails {
				return errors.New("move: compensation cannot finish")
			}
			return nil
		}},
	})
	eng.MustRegister(&core.TxnType{
		Name: "hold", ID: txnHold,
		Steps: []core.Step{{Name: "hold", Type: stHold, Body: func(tc *core.Ctx) error {
			if err := bump(tc, behaveWaitHeld); err != nil {
				return err
			}
			<-release
			return nil
		}}},
	})
	return eng
}

// TestSpanStatusSameInProcessAndServed runs each outcome an executed
// transaction can reach here — commit, both rollbacks, both refusals, a
// failed compensation, a failed step and a lock timeout — once in process
// (an engine-owned span) and once through the server (the request's span),
// and requires both spans to carry the same status: the outcome's name.
func TestSpanStatusSameInProcessAndServed(t *testing.T) {
	an := trace.NewAnatomy(trace.AnatomyConfig{})
	release := make(chan struct{})
	eng := outcomeEngine(t, an, release)
	defer eng.Close()
	rc := dialRaw(t, serve(t, Config{Engine: eng, Anatomy: an}))
	defer rc.c.Close()

	held := make(chan error, 1)
	go func() { held <- eng.Run("hold", nil) }()
	waitFor(t, "the holder's lock", func() bool { return eng.Locks().Snapshot().GrantCount() > 0 })

	for i, c := range []struct {
		behave int64
		tier   core.ReadTier
		want   core.Outcome
	}{
		{behaveCommit, core.TierLocked, core.OutcomeOK},
		{behaveAbortFirst, core.TierLocked, core.OutcomeAborted},
		{behaveAbortSecond, core.TierLocked, core.OutcomeCompensated},
		{behaveCompFails, core.TierLocked, core.OutcomeInternal},
		{behaveBadArgs, core.TierLocked, core.OutcomeBadRequest},
		{behaveWrite, core.TierSnapshot, core.OutcomeBadRequest},
		{behaveFail, core.TierLocked, core.OutcomeInternal},
		{behaveWaitHeld, core.TierLocked, core.OutcomeLockTimeout},
	} {
		args := &moveArgs{ID: int64(i), Account: c.behave}
		err := eng.Exec(context.Background(), core.Request{Name: "move", Args: args, Tier: c.tier})
		if got := core.OutcomeOf(err); got != c.want {
			t.Errorf("behaviour %d in process: %v (%v), want %v", c.behave, got, err, c.want)
		}
		// The engine-owned span finished inside Exec.
		recent := an.Recent()
		local := recent[len(recent)-1]

		traceID := uint64(1000 + i)
		req := mustReq(uint64(i+1), "move", args)
		req.Trace, req.Tier = traceID, uint8(c.tier)
		if err := wire.WriteRequest(rc.c, req); err != nil {
			t.Fatal(err)
		}
		if resp := rc.recv(); resp.Status.String() != c.want.String() {
			t.Errorf("behaviour %d served: status %v (%s), want %v", c.behave, resp.Status, resp.Msg, c.want)
		}
		var served *trace.SpanRecord
		waitFor(t, "the served span", func() bool {
			for _, rec := range an.Recent() {
				if rec.Trace == traceID {
					served = &rec
					return true
				}
			}
			return false
		})
		if local.Trace != 0 || local.Type != "move" {
			t.Fatalf("behaviour %d: the last in-process span is %+v", c.behave, local)
		}
		if local.Status != served.Status || served.Status != c.want.String() {
			t.Errorf("behaviour %d: span status %q in process, %q served, want %q",
				c.behave, local.Status, served.Status, c.want)
		}
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("holder: %v", err)
	}
}
