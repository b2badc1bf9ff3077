package core

import (
	"context"
	"errors"
	"testing"

	"accdb/internal/fault"
	"accdb/internal/spi"
	"accdb/internal/wal"
)

// peekArgs parameterizes the read-only "peek" type: read one account, then
// run AfterRead (still inside the body, locks held).
type peekArgs struct {
	ID        int64
	Balance   int64
	AfterRead func()
}

func registerPeek(t testing.TB, s *testSys) {
	t.Helper()
	s.eng.MustRegister(&TxnType{
		Name: "peek", ID: s.txnTransfer,
		Steps: []Step{{
			Name: "peek", Type: s.stepDebit,
			Body: func(tc *Ctx) error {
				a := tc.Args().(*peekArgs)
				row, err := tc.Get("accounts", spi.I64(a.ID))
				if err != nil {
					return err
				}
				a.Balance = row[s.balCol].Int64()
				if a.AfterRead != nil {
					a.AfterRead()
				}
				return nil
			},
		}},
	})
}

// pausedTransfer starts a transfer 1 -> 2 and returns once its debit step is
// over — end-of-step record appended, writes published, X lock on account 1
// retired, nothing forced — with the transfer parked at the start of its
// credit step. release lets it finish; done delivers its outcome.
func pausedTransfer(t *testing.T, s *testSys) (release func(), done <-chan error) {
	t.Helper()
	atBoundary, hold, out := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		out <- s.eng.Run("transfer", &transferArgs{
			From: 1, To: 2, Amount: 30,
			BeforeCredit: func() { close(atBoundary); <-hold },
		})
	}()
	<-atBoundary
	return func() { close(hold) }, out
}

// retiredOn returns the retired grants the lock table shows on an accounts
// row, and fails the test if the dump has any waits-for edge: a retired
// grant blocks nobody.
func retiredOn(t *testing.T, s *testSys, id int64) []spi.GrantSnapshot {
	t.Helper()
	snap := s.eng.Locks().Snapshot()
	if len(snap.Edges) != 0 {
		t.Fatalf("waits-for edges with only retired grants around: %s", snap.String())
	}
	var out []spi.GrantSnapshot
	for _, sh := range snap.Shards {
		for _, it := range sh.Items {
			if it.Item != spi.RowItem("accounts", spi.EncodeKey(spi.I64(id))) {
				continue
			}
			for _, g := range it.Grants {
				if g.Kind == "retired" {
					out = append(out, g)
				}
			}
		}
	}
	return out
}

// TestReaderWaitsOnlyForWhatItSaw is controlled lock violation end to end: a
// step boundary gives up its X lock before its record is durable; a reader of
// that row is granted at once but does not return until the record is
// durable; a reader of untouched rows forces nothing; and the retired grant
// is visible as such until the writer's own Exec returns.
func TestReaderWaitsOnlyForWhatItSaw(t *testing.T) {
	s := newTestSys(t, ModeACC)
	registerPeek(t, s)
	release, done := pausedTransfer(t, s)
	log := s.eng.Log()

	g := retiredOn(t, s, 1)
	if len(g) != 1 || g[0].Mode != "X" || g[0].LSN == 0 {
		t.Fatalf("retired grants on account 1 = %+v, want one X stamped with the end-of-step LSN", g)
	}
	eos := wal.LSN(g[0].LSN)
	if log.Durable() >= eos {
		t.Fatalf("the debit's end-of-step record (lsn %d) was forced at the boundary (durable %d)", eos, log.Durable())
	}

	// Untouched rows: no dependency, no force, nothing appended.
	before := log.Snapshot()
	cold := &peekArgs{ID: 5}
	if err := s.eng.Run("peek", cold); err != nil {
		t.Fatal(err)
	}
	if after := log.Snapshot(); after.Forces != before.Forces || after.Records != before.Records {
		t.Fatalf("a reader of untouched rows touched the log: %+v -> %+v", before, after)
	}
	if log.Durable() >= eos {
		t.Fatal("a reader of untouched rows made the writer's record durable")
	}

	// The written row: granted over the retired X, sees the debit, and its
	// reply waits for the debit's record.
	hot := &peekArgs{ID: 1, AfterRead: func() {
		if log.Durable() >= eos {
			t.Error("the reader was not granted until the record was durable: a retired grant must not block")
		}
	}}
	if err := s.eng.Run("peek", hot); err != nil {
		t.Fatal(err)
	}
	if hot.Balance != 70 {
		t.Fatalf("reader saw balance %d, want the debited 70", hot.Balance)
	}
	if log.Durable() < eos {
		t.Fatalf("reader returned with the record it read from not durable (durable %d < %d)", log.Durable(), eos)
	}
	if after := log.Snapshot(); after.Forces != before.Forces+1 || after.Records != before.Records {
		t.Fatalf("the dependent reader should force once and append nothing: %+v -> %+v", before, after)
	}
	if got := s.eng.Snapshot(); got.ReadOnly != 2 || got.Commits != 0 {
		t.Fatalf("stats = %+v, want 2 read-only transactions and no commit yet", got)
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if snap := s.eng.Locks().Snapshot(); snap.GrantCount() != 0 {
		t.Fatalf("grants left after the writer's Exec returned: %s", snap.String())
	}
	if log.Durable() != wal.LSN(log.Snapshot().Bytes) {
		t.Fatal("the writer returned before its commit record was durable")
	}
}

// TestReaderFailsIfLogFreezesFirst: the reader saw a write whose record can
// no longer become durable, so its reply is ErrLogFailed, not OK — and the
// engine is fail-stop from then on.
func TestReaderFailsIfLogFreezesFirst(t *testing.T) {
	s := newTestSys(t, ModeACC)
	registerPeek(t, s)
	release, done := pausedTransfer(t, s)
	defer func() { release(); <-done }()

	err := s.eng.Run("peek", &peekArgs{ID: 1, AfterRead: s.eng.Log().Crash})
	if !errors.Is(err, ErrLogFailed) {
		t.Fatalf("reader over a lost write returned %v, want ErrLogFailed", err)
	}
	if Retryable(err) {
		t.Fatal("ErrLogFailed must not be retryable")
	}
	if err := s.eng.Run("peek", &peekArgs{ID: 5}); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("engine kept serving after its log failed: %v", err)
	}
}

// TestVersionedReaderWaitsForPublishedMark: the lock-free tiers cannot see
// retired grants, so their reply waits for the newest published record.
func TestVersionedReaderWaitsForPublishedMark(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerAudit(t, s)
	release, done := pausedTransfer(t, s)
	log := s.eng.Log()
	eos := wal.LSN(retiredOn(t, s, 1)[0].LSN)

	a := &auditArgs{}
	if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: TierSnapshot}); err != nil {
		t.Fatal(err)
	}
	if a.Balances[1] != 70 {
		t.Fatalf("snapshot read balance %d, want the published 70", a.Balances[1])
	}
	if log.Durable() < eos {
		t.Fatalf("snapshot read returned before the record it read was durable (%d < %d)", log.Durable(), eos)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCommitWithFailedForceIsNotAcknowledged: a write or fsync error freezes
// the log; the transaction whose durability wait ends on it gets ErrLogFailed
// — never OK — and so does everything after it.
func TestCommitWithFailedForceIsNotAcknowledged(t *testing.T) {
	for _, point := range []string{"wal.sync.error", "wal.write.error"} {
		t.Run(point, func(t *testing.T) {
			s := diskSys(t, t.TempDir())
			if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 10}); err != nil {
				t.Fatal(err)
			}
			c := fault.NewController(1)
			c.Arm(point, fault.Spec{Effect: fault.Error, Nth: 1})
			c.Activate()
			err := s.eng.Run("transfer", &transferArgs{From: 3, To: 4, Amount: 10})
			fault.Deactivate()
			if !errors.Is(err, ErrLogFailed) {
				t.Fatalf("commit over a failed force returned %v, want ErrLogFailed", err)
			}
			var inj *fault.InjectedError
			if !errors.As(s.eng.Log().Err(), &inj) {
				t.Fatalf("log error = %v, want the injected one", s.eng.Log().Err())
			}
			if err := s.eng.Run("transfer", &transferArgs{From: 5, To: 6, Amount: 1}); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("engine accepted a write after its log failed: %v", err)
			}
			if got := s.eng.Snapshot().Commits; got != 1 {
				t.Fatalf("commits = %d, want only the one before the failure", got)
			}
		})
	}
}

// TestFinalStepIsClosedByCommit pins the log shape: no end-of-step record for
// the final step, and a log cut before the commit record leaves that step in
// flight — recovery compensates from the steps before it.
func TestFinalStepIsClosedByCommit(t *testing.T) {
	s := newTestSys(t, ModeACC)
	if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 5}); err != nil {
		t.Fatal(err)
	}
	var types []wal.Type
	img := s.eng.Log().Bytes()
	if err := wal.Replay(img, func(r wal.Record) error { types = append(types, r.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []wal.Type{wal.TBegin, wal.TStepBegin, wal.TWrite, wal.TEndOfStep, wal.TStepBegin, wal.TWrite, wal.TCommit}
	if len(types) != len(want) {
		t.Fatalf("log = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("log = %v, want %v", types, want)
		}
	}
	a, err := wal.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range a.Txns {
		if !st.Committed || st.CompletedSteps != 2 || len(st.Written) != 2 {
			t.Fatalf("committed transfer analysed as %+v", st)
		}
	}
	// Cut the commit record off: the credit step was never completed.
	cut, err := wal.Analyze(img[:len(img)-4])
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range cut.Txns {
		if st.Committed || st.CompletedSteps != 1 || len(st.Written) != 1 {
			t.Fatalf("transfer without its commit record analysed as %+v, want 1 of 2 steps completed", st)
		}
	}
}
