package acc_test

import (
	"context"
	"errors"
	"testing"

	"accdb/internal/spi/spitest"
	"accdb/internal/storage"
	"accdb/pkg/acc"
)

// TestWithStorage: a caller-supplied Storage is the store the engine runs
// over, and the engine reaches it only through the contract. Behind
// spitest's checking wrapper, a commit, a user abort that compensates a
// completed step and a snapshot-tier read all run, and no row that crossed
// the seam reads differently afterwards.
func TestWithStorage(t *testing.T) {
	store := spitest.Frozen(storage.NewStore())
	s := newMoveSys(t, acc.WithStorage(store))
	defer s.eng.Close()
	if s.eng.DB().Store() != store {
		t.Fatal("the engine does not run over the supplied Storage")
	}

	if err := s.eng.Run("move", &moveArgs{ID: 1, Account: 1}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	err := s.eng.Run("move", &moveArgs{ID: 2, Account: 2, Abort: true})
	if !acc.IsCompensated(err) || !errors.Is(err, acc.ErrUserAbort) {
		t.Fatalf("user abort after step 1: want a compensated ErrUserAbort, got %v", err)
	}
	if got := s.eng.Snapshot().Compensations; got != 1 {
		t.Fatalf("compensations = %d, want 1", got)
	}

	var tally tallyArgs
	if err := s.eng.Exec(context.Background(), acc.Request{Name: "tally", Args: &tally, Tier: acc.TierSnapshot}); err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	// The commit's journal entry and +1 stand; the abort's entry was
	// compensated away.
	if want := (tallyArgs{Journal: 1, Balance: 301}); tally != want {
		t.Fatalf("snapshot read %+v, want %+v", tally, want)
	}
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
}
