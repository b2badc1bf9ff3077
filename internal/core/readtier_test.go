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

// heldAuditArgs keeps a snapshot-tier read in flight: the "held-audit" body
// sums the accounts, and for as long as Hold returns true sums them again,
// then sums them once more before it returns. Views records every sum.
type heldAuditArgs struct {
	Hold  func() bool
	Views []auditArgs
}

// registerAudit adds two single-step read-only types: "audit", which sums
// every account, and "held-audit", which sums them repeatedly inside one
// Exec (heldAuditArgs). Neither writes, so both run at the snapshot tier.
func registerAudit(t testing.TB, s *testSys) {
	t.Helper()
	sum := func(tc *Ctx, a *auditArgs) error {
		a.Balances = map[int64]int64{}
		a.Total = 0
		return tc.Scan("accounts", func(row spi.Row) error {
			id, bal := row[0].Int64(), row[s.balCol].Int64()
			a.Balances[id] = bal
			a.Total += bal
			return nil
		})
	}
	s.eng.MustRegister(&TxnType{
		Name: "audit", ID: s.txnTransfer,
		Steps: []Step{{
			Name: "sum", Type: s.stepDebit,
			Body: func(tc *Ctx) error { return sum(tc, tc.Args().(*auditArgs)) },
		}},
	})
	s.eng.MustRegister(&TxnType{
		Name: "held-audit", ID: s.txnTransfer,
		Steps: []Step{{
			Name: "sums", Type: s.stepDebit,
			Body: func(tc *Ctx) error {
				h := tc.Args().(*heldAuditArgs)
				for more := true; ; more = h.Hold() {
					var a auditArgs
					if err := sum(tc, &a); err != nil {
						return err
					}
					h.Views = append(h.Views, a)
					if !more {
						return nil
					}
				}
			},
		}},
	})
}

// holdSnapshot starts a held-audit at the snapshot tier in its own
// goroutine and returns once its first sum is done, so its snapshot is
// registered. The read stays in flight until release is closed; wait
// returns its views and error.
func holdSnapshot(s *testSys, release <-chan struct{}, spin bool) (wait func() ([]auditArgs, error)) {
	h := &heldAuditArgs{}
	opened := make(chan struct{})
	var once sync.Once
	h.Hold = func() bool {
		once.Do(func() { close(opened) })
		if spin {
			select {
			case <-release:
				return false
			default:
				return true
			}
		}
		<-release
		return false
	}
	done := make(chan error, 1)
	go func() {
		done <- s.eng.Exec(context.Background(), Request{Name: "held-audit", Args: h, Tier: TierSnapshot})
	}()
	select {
	case <-opened:
	case err := <-done: // failed before its first Hold
		return func() ([]auditArgs, error) { return h.Views, err }
	}
	return func() ([]auditArgs, error) {
		err := <-done
		return h.Views, err
	}
}

// registerPoke adds a single-step type that writes — for asserting the
// snapshot tier rejects writes with ErrReadOnly.
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

	for _, tier := range []ReadTier{TierSnapshot} {
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
	for _, tier := range []ReadTier{TierSnapshot} {
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

// TestSnapshotStableView holds one snapshot-tier Exec open over the loaded
// (quiescent) state while 32 writers churn the same keys with transfers. Every
// statement of that Exec — the one before the writers start, those during the
// churn, and the one after it — must see the opened state, every account at
// its original 100. Run under -race this also exercises publish/read
// interleavings.
func TestSnapshotStableView(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = time.Millisecond })
	defer s.eng.Close()
	registerAudit(t, s)

	release := make(chan struct{})
	wait := holdSnapshot(s, release, true)

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

	deadline := time.Now().Add(500 * time.Millisecond)
	for churned.Load() < 200 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release) // the writers are still running: the last sum overlaps them
	views, err := wait()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if churned.Load() == 0 {
		t.Fatal("writers made no progress; the stability check proved nothing")
	}
	if len(views) < 2 {
		t.Fatalf("held snapshot read %d times, want at least 2", len(views))
	}
	for i, v := range views {
		for id := int64(1); id <= 6; id++ {
			if v.Balances[id] != 100 {
				t.Fatalf("snapshot view moved at statement %d of %d: account %d = %d, want 100",
					i+1, len(views), id, v.Balances[id])
			}
		}
	}
	if got := s.eng.LiveSnapshots(); got != 0 {
		t.Fatalf("%d snapshots live after the Exec returned", got)
	}
	// The writers are done: a new snapshot sees the final committed state,
	// which transfers keep at the same grand total.
	a := &auditArgs{}
	if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: TierSnapshot}); err != nil {
		t.Fatal(err)
	}
	if a.Total != 600 {
		t.Fatalf("post-churn snapshot total = %d, want 600", a.Total)
	}
}

// TestVersionGCTruncatesBehindSnapshot: chains grow while an in-flight
// snapshot Exec pins them, the reaper cannot collect past the snapshot's CSN,
// and once that Exec returns a pass truncates every chain back to quiescence
// (dropping them entirely, since the bank is idle).
func TestVersionGCTruncatesBehindSnapshot(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerAudit(t, s)

	if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 5}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	wait := holdSnapshot(s, release, false)
	for i := 0; i < 10; i++ {
		if err := s.eng.Run("transfer", &transferArgs{From: 1, To: 2, Amount: 1}); err != nil {
			t.Fatal(err)
		}
	}
	grown := s.eng.Versions()
	if grown.ChainVersions == 0 {
		t.Fatal("no chains grew under load")
	}
	if got := s.eng.LiveSnapshots(); got != 1 {
		t.Fatalf("%d snapshots live while one Exec is in flight, want 1", got)
	}

	// With the snapshot in flight, GC must preserve its view: the held
	// Exec's second sum runs after the reap.
	s.eng.ReapVersions()
	close(release)
	views, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("held snapshot read %d times, want 2", len(views))
	}
	if b := views[1].Balances; b[1] != 95 || b[2] != 105 {
		t.Fatalf("GC corrupted the in-flight snapshot: %+v", b)
	}

	if got := s.eng.LiveSnapshots(); got != 0 {
		t.Fatalf("%d snapshots live after the Exec returned", got)
	}
	pruned, dropped := s.eng.ReapVersions()
	if pruned == 0 || dropped == 0 {
		t.Fatalf("reap after the Exec: pruned=%d dropped=%d; want full collection", pruned, dropped)
	}
	if vm := s.eng.Versions(); vm.ChainVersions != 0 {
		t.Fatalf("quiescent engine still holds %d chain versions", vm.ChainVersions)
	}
	// Reads still correct off the base rows.
	a := &auditArgs{}
	if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: TierSnapshot}); err != nil {
		t.Fatal(err)
	}
	if a.Balances[1] != 85 || a.Balances[2] != 115 {
		t.Fatalf("post-GC read = %+v", a.Balances)
	}
}

// TestReadTierExposureSemantics: a snapshot Exec started inside the
// transfer's credit step sees the interstep state the debit step's exposure
// point published (the paper's semantics: those states are readable by locked
// transactions too once step locks release), while a snapshot Exec that
// captured its CSN before the transfer and reads again after it still sees
// the original values.
func TestReadTierExposureSemantics(t *testing.T) {
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerAudit(t, s)

	release := make(chan struct{})
	wait := holdSnapshot(s, release, false)

	var mid auditArgs
	var midErr error
	err := s.eng.Run("transfer", &transferArgs{
		From: 1, To: 2, Amount: 30,
		BeforeCredit: func() {
			// A snapshot read takes no locks, so it runs here, while the
			// transfer still holds its credit step's locks, without waiting.
			midErr = s.eng.Exec(context.Background(), Request{Name: "audit", Args: &mid, Tier: TierSnapshot})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if midErr != nil {
		t.Fatal(midErr)
	}
	if mid.Balances[1] != 70 || mid.Balances[2] != 100 {
		t.Fatalf("interstep snapshot view = %v, want debit exposed (70), credit not (100)", mid.Balances)
	}
	close(release)
	views, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("held snapshot read %d times, want 2", len(views))
	}
	if b := views[1].Balances; b[1] != 100 || b[2] != 100 {
		t.Fatalf("pre-transfer snapshot moved: %v", b)
	}
}

// TestParseReadTier: the flag strings of the two tiers parse, the names of
// the deleted per-statement tiers are refused, and Exec refuses a tier value
// past TierSnapshot before it reads anything.
func TestParseReadTier(t *testing.T) {
	for s, want := range map[string]ReadTier{"": TierLocked, "locked": TierLocked, "snapshot": TierSnapshot} {
		if got, err := ParseReadTier(s); err != nil || got != want {
			t.Errorf("ParseReadTier(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"asap", "committed", "read-committed"} {
		if _, err := ParseReadTier(s); err == nil {
			t.Errorf("ParseReadTier(%q) accepted", s)
		}
	}
	if ValidTier(uint8(TierSnapshot)+1) || !ValidTier(uint8(TierSnapshot)) {
		t.Error("ValidTier does not end at TierSnapshot")
	}
	s := newTestSys(t, ModeACC, func(o *Options) { o.VersionGCInterval = -1 })
	defer s.eng.Close()
	registerAudit(t, s)
	if err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: &auditArgs{}, Tier: TierSnapshot + 1}); err == nil {
		t.Error("Exec accepted a tier past TierSnapshot")
	}
	if sums, vm := s.eng.ReadTierSummaries(), s.eng.Versions(); len(sums) != 0 || vm.SnapshotsOpened != 0 {
		t.Errorf("a refused tier read: summaries %v, %d snapshots opened", sums, vm.SnapshotsOpened)
	}
}
