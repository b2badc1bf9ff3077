package core

import (
	"errors"
	"testing"

	"accdb/internal/fault"
	"accdb/internal/wal"
)

// diskSys builds the bank test system over a disk-backed log in dir.
func diskSys(t *testing.T, dir string) *testSys {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return newTestSys(t, ModeACC, func(o *Options) { o.Log = l })
}

func TestDiskRecoveryAfterCommitForceCrash(t *testing.T) {
	dir := t.TempDir()
	s := diskSys(t, dir)
	// Two clean commits, then a transfer that crashes at its commit record:
	// the debit's end-of-step record is durable (another session's sync
	// covered it), the credit step and the commit record are lost — recovery
	// must compensate the debit, and the doomed run must not be acknowledged.
	for i := int64(1); i <= 2; i++ {
		if err := s.eng.Run("transfer", &transferArgs{From: i, To: i + 1, Amount: 10}); err != nil {
			t.Fatal(err)
		}
	}
	c := fault.NewController(5)
	c.Arm("core.commit.force.crash", fault.Spec{Effect: fault.Crash, Nth: 1})
	c.Activate()
	err := s.eng.Run("transfer", &transferArgs{From: 5, To: 6, Amount: 30,
		BeforeCredit: func() { s.eng.Log().Force() }})
	fault.Deactivate()
	if !errors.Is(err, ErrLogFailed) {
		t.Fatalf("crashed run returned %v, want ErrLogFailed", err)
	}
	if !s.eng.Log().Crashed() {
		t.Fatal("commit-force fault did not freeze the log")
	}
	s.eng.Log().Close()

	// Restart: reopen the directory, recover over a fresh base state.
	s2 := diskSys(t, dir)
	res, err := s2.eng.RecoverLog(s2.eng.Log())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 {
		t.Fatalf("recovered %d commits, want 2", res.Committed)
	}
	if len(res.CompensatedTxns) != 1 {
		t.Fatalf("CompensatedTxns = %+v, want the crashed transfer", res.CompensatedTxns)
	}
	args, ok := res.CompensatedTxns[0].Args.(*transferArgs)
	if !ok || args.From != 5 || args.Amount != 30 {
		t.Fatalf("decoded args = %+v", res.CompensatedTxns[0].Args)
	}
	// Both committed transfers applied; the crashed one fully compensated.
	if s2.balance(t, 1) != 90 || s2.balance(t, 2) != 100 || s2.balance(t, 3) != 110 {
		t.Fatalf("committed transfers wrong: %d/%d/%d",
			s2.balance(t, 1), s2.balance(t, 2), s2.balance(t, 3))
	}
	if s2.balance(t, 5) != 100 || s2.balance(t, 6) != 100 {
		t.Fatalf("crashed transfer not compensated: %d/%d", s2.balance(t, 5), s2.balance(t, 6))
	}
	if s2.total(t) != 600 {
		t.Fatalf("total = %d", s2.total(t))
	}
	// The recovered engine keeps working against the same log, and its IDs
	// cleared the logged history.
	// nextTxn holds the last-issued ID: the next Run gets MaxTxn+1 or later.
	if s2.eng.nextTxn.Load() < res.Analysis.MaxTxn {
		t.Fatalf("nextTxn %d not advanced to logged max %d",
			s2.eng.nextTxn.Load(), res.Analysis.MaxTxn)
	}
	if err := s2.eng.Run("transfer", &transferArgs{From: 4, To: 5, Amount: 7}); err != nil {
		t.Fatal(err)
	}

	// Second crash, this time mid-transaction, right after the debit step gave
	// up its locks with its end-of-step record still in the buffer, and with
	// the pre-crash history still in the log: recovery must replay the whole
	// prefix and compensate only what is pending.
	c2 := fault.NewController(6)
	c2.Arm("core.retire.crash", fault.Spec{Effect: fault.Crash, Nth: 1})
	c2.Activate()
	err = s2.eng.Run("transfer", &transferArgs{From: 2, To: 3, Amount: 5})
	fault.Deactivate()
	if !errors.Is(err, ErrLogFailed) {
		t.Fatalf("second crashed run returned %v, want ErrLogFailed", err)
	}
	if !s2.eng.Log().Crashed() {
		t.Fatal("retire fault did not freeze the log")
	}
	s2.eng.Log().Close()

	s3 := diskSys(t, dir)
	res3, err := s3.eng.RecoverLog(s3.eng.Log())
	if err != nil {
		t.Fatal(err)
	}
	if res3.Committed != 3 {
		t.Fatalf("after second crash recovered %d commits, want 3", res3.Committed)
	}
	// The second crashed transfer never durably completed its debit step, so
	// nothing is pending beyond the first crash's (already compensated) txn.
	if len(res3.CompensatedTxns) != 0 {
		t.Fatalf("CompensatedTxns after second crash = %+v", res3.CompensatedTxns)
	}
	if s3.total(t) != 600 {
		t.Fatalf("total after second recovery = %d", s3.total(t))
	}
}

func TestRecoveryReattachesExposureAndReservation(t *testing.T) {
	s := newTestSys(t, ModeACC)
	crashed := make(chan struct{})
	hang := make(chan struct{})
	defer close(hang)
	go func() {
		s.eng.Run("transfer", &transferArgs{
			From: 3, To: 4, Amount: 40,
			BeforeCredit: func() { close(crashed); <-hang },
		})
	}()
	<-crashed
	s.eng.Log().Force()
	img := s.eng.Log().DurableBytes()

	// Recover into a fresh system whose compensation body inspects the lock
	// table: the debit's written item must carry re-attached D (exposure)
	// and C (reservation) grants while compensation runs.
	s2 := newTestSys(t, ModeACC)
	sawD, sawC := false, false
	tt := s2.eng.Type("transfer")
	inner := tt.Comp.Body
	tt.Comp.Body = func(tc *Ctx, completed int) error {
		snap := s2.eng.Locks().Snapshot()
		for _, sh := range snap.Shards {
			for _, it := range sh.Items {
				if it.Item.Table != "accounts" {
					continue
				}
				for _, g := range it.Grants {
					switch g.Kind {
					case "D":
						sawD = true
					case "C":
						sawC = true
					}
				}
			}
		}
		return inner(tc, completed)
	}
	if _, err := s2.eng.Recover(img); err != nil {
		t.Fatal(err)
	}
	if !sawD || !sawC {
		t.Fatalf("compensation ran without re-attached locks: D=%v C=%v", sawD, sawC)
	}
	if s2.balance(t, 3) != 100 {
		t.Fatal("compensation did not restore the debited account")
	}
}

func TestRecoveryRefusesCorruptLog(t *testing.T) {
	s := newTestSys(t, ModeACC)
	for i := int64(1); i <= 3; i++ {
		if err := s.eng.Run("transfer", &transferArgs{From: i, To: i + 1, Amount: 1}); err != nil {
			t.Fatal(err)
		}
	}
	img := append([]byte(nil), s.eng.Log().Bytes()...)
	img[len(img)/2] ^= 0xFF // mid-log damage, not a crash tail

	s2 := newTestSys(t, ModeACC)
	if _, err := s2.eng.Recover(img); err == nil {
		t.Fatal("recovery accepted a log with destroyed durable records")
	}
}
