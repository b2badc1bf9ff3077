package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accdb/internal/spi"
)

// auditArgs collects a read-only pass over the accounts table.
type auditArgs struct {
	Balances map[int64]int64
	Total    int64
}

// registerAudit adds a single-step read-only type that sums every account.
// It never writes, so it is eligible for all versioned tiers.
func registerAudit(t testing.TB, s *testSys) {
	t.Helper()
	s.eng.MustRegister(&TxnType{
		Name: "audit", ID: s.txnTransfer,
		Steps: []Step{{
			Name: "sum", Type: s.stepDebit,
			Body: func(tc *Ctx) error {
				a := tc.Args().(*auditArgs)
				a.Balances = map[int64]int64{}
				a.Total = 0
				return tc.Scan("accounts", func(row spi.Row) error {
					id, bal := row[0].Int64(), row[s.balCol].Int64()
					a.Balances[id] = bal
					a.Total += bal
					return nil
				})
			},
		}},
	})
}

// registerPoke adds a single-step type that writes — for asserting the
// versioned tiers reject writes with ErrReadOnly.
func registerPoke(t *testing.T, s *testSys) {
	t.Helper()
	s.eng.MustRegister(&TxnType{
		Name: "poke", ID: s.txnTransfer,
		Steps: []Step{{
			Name: "poke", Type: s.stepDebit,
			Body: func(tc *Ctx) error {
				return tc.Update("accounts", []spi.Value{spi.I64(1)}, func(row spi.Row) error {
					row[s.balCol] = spi.I64(0)
					return nil
				})
			},
		}},
	})
}

// TestSnapshotReadAcquiresZeroLocks is the tentpole's acceptance assertion:
// a snapshot-tier read takes no locks at all (the lock manager's acquisition
// counter does not move), appends no log records, and leaves the waits-for
// graph empty — it can neither block nor be blocked, so it can never deadlock.
func TestSnapshotReadAcquiresZeroLocks(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerAudit(t, s)
	if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 30}); err != nil {
		t.Fatal(err)
	}

	before := s.eng.Locks().Stats()
	wal := s.eng.Log().Snapshot()
	commits := s.eng.Snapshot().Commits

	for _, tier := range []ReadTier{TierASAP, TierReadCommitted, TierSnapshot} {
		a := &auditArgs{}
		if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: tier}); err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if a.Total != 600 || a.Balances[1] != 70 || a.Balances[2] != 130 {
			t.Fatalf("%s: read %+v, want committed state", tier, a)
		}
	}

	after := s.eng.Locks().Stats()
	if after.Acquisitions != before.Acquisitions || after.Waits != before.Waits {
		t.Fatalf("versioned reads touched the lock manager: %+v -> %+v", before, after)
	}
	snap := s.eng.Locks().Snapshot()
	if snap.GrantCount() != 0 || snap.WaiterCount() != 0 || len(snap.Edges) != 0 {
		t.Fatalf("versioned reads left lock-table state: %s", snap.String())
	}
	if ws := s.eng.Log().Snapshot(); ws.Records != wal.Records {
		t.Fatalf("versioned reads appended log records: %d -> %d", wal.Records, ws.Records)
	}
	if s.eng.Snapshot().Commits != commits {
		t.Fatal("versioned reads counted as commits")
	}
	sums := s.eng.ReadTierSummaries()
	for _, tier := range []ReadTier{TierASAP, TierReadCommitted, TierSnapshot} {
		if sums[tier.String()].Count != 1 {
			t.Fatalf("per-tier latency not recorded: %+v", sums)
		}
	}
}

// TestVersionedTierRejectsWrites: any write op inside a versioned-tier read
// fails with ErrReadOnly and mutates nothing.
func TestVersionedTierRejectsWrites(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerPoke(t, s)
	err := s.eng.Exec(context.Background(), Request{Name: "poke", Args: nil, Tier: TierSnapshot})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("got %v, want ErrReadOnly", err)
	}
	if s.balance(t, 1) != 100 {
		t.Fatal("rejected write mutated the row")
	}
}

// TestSnapshotStableView has a long-lived snapshot opened over the loaded
// (quiescent) state while 32 writers churn the same keys with transfers. The
// snapshot must see exactly the opened state — every account at its original
// 100 — for its entire lifetime, while read-ASAP observes the churn. Run
// under -race this also exercises publish/read interleavings.
func TestSnapshotStableView(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = time.Millisecond })
	defer s.eng.Close()
	registerAudit(t, s)

	snap := s.eng.OpenSnapshot()
	defer snap.Close()

	const writers = 32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churned atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := int64(w%6) + 1
			to := from%6 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := s.eng.Run("transfer", &transferArgs{From: from, To: to, Amount: 1})
				if err == nil {
					churned.Add(1)
				} else if !Retryable(err) && !errors.Is(err, ErrAborted) {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	deadline := time.After(500 * time.Millisecond)
	reads := 0
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			a := &auditArgs{}
			if err := snap.Run(context.Background(), "audit", a); err != nil {
				t.Fatal(err)
			}
			reads++
			for id := int64(1); id <= 6; id++ {
				if a.Balances[id] != 100 {
					t.Fatalf("snapshot view moved after %d reads: account %d = %d, want 100",
						reads, id, a.Balances[id])
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if churned.Load() == 0 {
		t.Fatal("writers made no progress; the stability check proved nothing")
	}
	// The writers are done: read-ASAP now sees the final committed state,
	// which transfers keep at the same grand total.
	a := &auditArgs{}
	if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: TierASAP}); err != nil {
		t.Fatal(err)
	}
	if a.Total != 600 {
		t.Fatalf("post-churn ASAP total = %d, want 600", a.Total)
	}
}

// TestVersionGCTruncatesBehindSnapshot: chains grow while a snapshot pins
// them, the reaper cannot collect past the snapshot's CSN, and once the
// oldest snapshot closes a pass truncates every chain back to quiescence
// (dropping them entirely, since the bank is idle).
func TestVersionGCTruncatesBehindSnapshot(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerAudit(t, s)

	if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 5}); err != nil {
		t.Fatal(err)
	}
	snap := s.eng.OpenSnapshot()
	for i := 0; i < 10; i++ {
		if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 1}); err != nil {
			t.Fatal(err)
		}
	}
	grown := s.eng.Versions()
	if grown.ChainVersions == 0 {
		t.Fatal("no chains grew under load")
	}

	// With the snapshot live, GC must preserve its view.
	s.eng.ReapVersions()
	a := &auditArgs{}
	if err := snap.Run(context.Background(), "audit", a); err != nil {
		t.Fatal(err)
	}
	if a.Balances[1] != 95 || a.Balances[2] != 105 {
		t.Fatalf("GC corrupted the pinned snapshot: %+v", a.Balances)
	}

	snap.Close()
	if got := s.eng.LiveSnapshots(); got != 0 {
		t.Fatalf("%d snapshots live after close", got)
	}
	pruned, dropped := s.eng.ReapVersions()
	if pruned == 0 || dropped == 0 {
		t.Fatalf("reap after close: pruned=%d dropped=%d; want full collection", pruned, dropped)
	}
	if vm := s.eng.Versions(); vm.ChainVersions != 0 {
		t.Fatalf("quiescent engine still holds %d chain versions", vm.ChainVersions)
	}
	// Reads still correct off the base rows.
	if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: TierSnapshot}); err != nil {
		t.Fatal(err)
	}
	if a.Balances[1] != 85 || a.Balances[2] != 115 {
		t.Fatalf("post-GC read = %+v", a.Balances)
	}
}

// TestReadCommittedSeesExposurePoints: a committed-tier statement sees the
// interstep state an end-of-step force exposed (the paper's semantics: those
// states are readable by locked transactions too once step locks release),
// while a snapshot fixed before the transfer still sees the original values.
func TestReadTierExposureSemantics(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerAudit(t, s)

	snap := s.eng.OpenSnapshot()
	defer snap.Close()

	probed := make(chan map[int64]int64, 1)
	err := s.eng.Run("transfer", &transferArgs{
		From: 1, To: 2, Amount: 30,
		BeforeCredit: func() {
			// The debit step's exposure point has published: a committed-tier
			// read from another goroutine (no locks, so no self-deadlock even
			// though the transfer still holds its locks) sees the debit.
			a := &auditArgs{}
			if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: TierReadCommitted}); err != nil {
				probed <- nil
				panic(err)
			}
			probed <- a.Balances
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mid := <-probed
	if mid[1] != 70 || mid[2] != 100 {
		t.Fatalf("committed-tier interstep view = %v, want debit exposed (70), credit not (100)", mid)
	}
	a := &auditArgs{}
	if err := snap.Run(context.Background(), "audit", a); err != nil {
		t.Fatal(err)
	}
	if a.Balances[1] != 100 || a.Balances[2] != 100 {
		t.Fatalf("pre-transfer snapshot moved: %v", a.Balances)
	}
}
