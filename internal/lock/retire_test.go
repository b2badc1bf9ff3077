package lock

import (
	"context"
	"testing"
	"time"

	"accdb/internal/spi"
)

// retiredGrants lists txn's retired entries in the lock-table dump and fails
// the test if the dump has a waits-for edge that leads to txn.
func retiredGrants(t *testing.T, m *Manager, txn spi.TxnID) []spi.GrantSnapshot {
	t.Helper()
	snap := m.Snapshot()
	for _, e := range snap.Edges {
		if e.To == txn {
			t.Fatalf("waits-for edge to a transaction that only holds retired grants: %+v", e)
		}
	}
	var out []spi.GrantSnapshot
	for _, sh := range snap.Shards {
		for _, it := range sh.Items {
			for _, g := range it.Grants {
				if g.Txn == txn && g.Kind == "retired" {
					out = append(out, g)
				}
			}
		}
	}
	return out
}

// TestRetiredGrantBlocksNobodyButIsRemembered: after Retire a write lock
// neither blocks nor shows up as a waits-for edge, yet exactly the requests
// that would have conflicted with it learn its log position.
func TestRetiredGrantBlocksNobodyButIsRemembered(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 5 * time.Second
	row, part := item("r"), spi.PartitionItem("t", "p")

	w := spi.NewTxn(1, 1)
	for _, l := range []struct {
		it   spi.Item
		mode spi.Mode
	}{{row, spi.ModeX}, {part, spi.ModeIX}, {item("read"), spi.ModeS}} {
		if err := m.Acquire(w, l.it, conv(l.mode)); err != nil {
			t.Fatal(err)
		}
	}
	m.Retire(w, 100, 40, false)

	g := retiredGrants(t, m, w.ID)
	if len(g) != 2 {
		t.Fatalf("retired grants = %+v, want the X and the IX (the S lock is simply released)", g)
	}
	for _, r := range g {
		if r.LSN != 100 || (r.Mode != "X" && r.Mode != "IX") {
			t.Fatalf("retired grant %+v, want mode X or IX at lsn 100", r)
		}
	}
	if m.HoldsConventional(w.ID, row, spi.ModeX) {
		t.Fatal("a retired grant still counts as a held lock")
	}

	for i, c := range []struct {
		name string
		it   spi.Item
		mode spi.Mode
		dep  uint64
	}{
		{"S over retired X", row, spi.ModeS, 100},
		{"X over retired X", row, spi.ModeX, 100},
		{"IS over retired IX", part, spi.ModeIS, 0},
		{"IX over retired IX", part, spi.ModeIX, 0},
		{"S over retired IX", part, spi.ModeS, 100},
		{"S where only an S was released", item("read"), spi.ModeS, 0},
	} {
		r := spi.NewTxn(spi.TxnID(10+i), 1)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := m.AcquireCtx(ctx, r, c.it, conv(c.mode))
		cancel()
		if err != nil {
			t.Fatalf("%s: blocked by a retired grant: %v", c.name, err)
		}
		if r.DepLSN() != c.dep {
			t.Errorf("%s: dependency = %d, want %d", c.name, r.DepLSN(), c.dep)
		}
		m.ReleaseAll(r)
	}

	// A conversion that lands on a retired grant's mode learns it too.
	r := spi.NewTxn(50, 1)
	if err := m.Acquire(r, part, conv(spi.ModeIS)); err != nil || r.DepLSN() != 0 {
		t.Fatalf("IS: err %v dep %d", err, r.DepLSN())
	}
	if err := m.Acquire(r, part, conv(spi.ModeS)); err != nil || r.DepLSN() != 100 {
		t.Fatalf("IS->S over retired IX: err %v dep %d, want 100", err, r.DepLSN())
	}
	m.ReleaseAll(r)

	m.ReleaseAll(w)
	if snap := m.Snapshot(); snap.GrantCount() != 0 {
		t.Fatalf("grants left after ReleaseAll: %s", snap.String())
	}
}

// TestRetireFoldsAndExpires: one retired grant per (transaction, item) however
// many boundaries touched it, dropped as soon as its record is durable, and a
// boundary whose record is already durable leaves nothing behind.
func TestRetireFoldsAndExpires(t *testing.T) {
	m := NewManager(newStub())
	row := item("r")
	w := spi.NewTxn(1, 1)

	if err := m.Acquire(w, row, conv(spi.ModeIX)); err != nil {
		t.Fatal(err)
	}
	m.Retire(w, 100, 0, false)
	if err := m.Acquire(w, row, conv(spi.ModeX)); err != nil { // its own retired grant does not block it
		t.Fatal(err)
	}
	m.Retire(w, 200, 0, false)
	if g := retiredGrants(t, m, w.ID); len(g) != 1 || g[0].Mode != "X" || g[0].LSN != 200 {
		t.Fatalf("after two boundaries: %+v, want one X at lsn 200", g)
	}

	// Exposure marks survive a non-final boundary and fall with the final one.
	m.AttachExposure(w, row)
	m.Retire(w, 300, 250, false) // nothing conventional held; 200 is durable now
	if g := retiredGrants(t, m, w.ID); len(g) != 0 {
		t.Fatalf("durable retired grant kept: %+v", g)
	}
	if snap := m.Snapshot(); snap.GrantCount() != 1 {
		t.Fatalf("want only the exposure mark left: %s", snap.String())
	}
	if err := m.Acquire(w, row, conv(spi.ModeX)); err != nil {
		t.Fatal(err)
	}
	m.Retire(w, 400, 400, true) // the record is durable already: plain release
	if snap := m.Snapshot(); snap.GrantCount() != 0 {
		t.Fatalf("final boundary with a durable record left grants: %s", snap.String())
	}
}

// TestRetireUnblocksWaiter: a request queued behind the lock is granted by
// the Retire itself and leaves with the dependency.
func TestRetireUnblocksWaiter(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 5 * time.Second
	row := item("r")
	w, r := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	if err := m.Acquire(w, row, conv(spi.ModeX)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(r, row, conv(spi.ModeS)) }()
	for m.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Retire(w, 77, 0, true)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if r.DepLSN() != 77 {
		t.Fatalf("dependency = %d, want 77", r.DepLSN())
	}
}
