package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
)

// opSys is a single-table playground for the Ctx operation surface: a
// partitioned inventory(region, sku, qty) plus a by-qty secondary index.
type opSys struct {
	db   *DB
	eng  *Engine
	inv  spi.Table
	txn  interference.TxnTypeID
	step interference.StepTypeID
}

// heldLocks is what these tests read off the engine's lock manager beyond
// spi.LockService; the lock package's manager has both methods.
type heldLocks interface {
	HeldItems(txn *spi.Txn) []spi.Item
	HoldsConventional(txn spi.TxnID, item spi.Item, want spi.Mode) bool
}

// locksOf returns the lock manager of tc's engine as a heldLocks.
func locksOf(tc *Ctx) heldLocks { return tc.e.lm.(heldLocks) }

func newOpSys(t *testing.T, opts ...Option) *opSys {
	t.Helper()
	s := &opSys{db: NewDB()}
	var err error
	s.inv, err = s.db.CreateTable(spi.MustSchema("inventory", []spi.Column{
		{Name: "region", Kind: spi.KindInt},
		{Name: "sku", Kind: spi.KindInt},
		{Name: "qty", Kind: spi.KindInt},
	}, "region", "sku"), "region")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.inv.AddIndex(spi.IndexDef{Name: "by_qty", Columns: []string{"qty"}}); err != nil {
		t.Fatal(err)
	}
	b := interference.NewBuilder()
	s.txn = b.TxnType("op", 1)
	s.step = b.StepType("op")
	b.AllowInterleaveEverywhere(s.step, s.txn)
	s.eng = New(s.db, b.Build(), append([]Option{WithWaitTimeout(5 * time.Second)}, opts...)...)
	for r := int64(1); r <= 2; r++ {
		for sku := int64(1); sku <= 5; sku++ {
			if err := s.inv.Insert(spi.Row{spi.I64(r), spi.I64(sku), spi.I64(sku * 10)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.inv.ResetVersions() // declare the load quiescent: the snapshot tiers see it
	return s
}

// run executes body as a single-step transaction.
func (s *opSys) run(t *testing.T, body func(tc *Ctx) error) error {
	t.Helper()
	return s.runAt(t, TierLocked, body)
}

// runAt is run at the given read tier.
func (s *opSys) runAt(t *testing.T, tier ReadTier, body func(tc *Ctx) error) error {
	t.Helper()
	return s.eng.Exec(context.Background(), Request{Type: &TxnType{
		Name: "op", ID: s.txn,
		Steps: []Step{{Name: "op", Type: s.step, Body: body}},
	}, Tier: tier})
}

// invKeys encodes inventory primary keys from (region, sku) pairs.
func invKeys(pairs ...[2]int64) []spi.Key {
	pks := make([]spi.Key, len(pairs))
	for i, p := range pairs {
		pks[i] = spi.EncodeKey(spi.I64(p[0]), spi.I64(p[1]))
	}
	return pks
}

func TestCtxGetInsertDelete(t *testing.T) {
	s := newOpSys(t)
	err := s.run(t, func(tc *Ctx) error {
		row, err := tc.Get("inventory", spi.I64(1), spi.I64(3))
		if err != nil {
			return err
		}
		if row[2].Int64() != 30 {
			t.Errorf("qty = %d", row[2].Int64())
		}
		if _, err := tc.Get("inventory", spi.I64(9), spi.I64(9)); !errors.Is(err, spi.ErrNotFound) {
			t.Errorf("missing row: %v", err)
		}
		if _, err := tc.Get("nope", spi.I64(1)); err == nil {
			t.Error("unknown table accepted")
		}
		if err := tc.Insert("inventory", spi.Row{spi.I64(3), spi.I64(1), spi.I64(7)}); err != nil {
			return err
		}
		return tc.Delete("inventory", spi.I64(1), spi.I64(5))
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.inv.Exists(spi.EncodeKey(spi.I64(1), spi.I64(5))) {
		t.Fatal("delete not applied")
	}
	if !s.inv.Exists(spi.EncodeKey(spi.I64(3), spi.I64(1))) {
		t.Fatal("insert not applied")
	}
}

func TestCtxScanPartitionIsolatedFromOtherPartitions(t *testing.T) {
	s := newOpSys(t)
	err := s.run(t, func(tc *Ctx) error {
		n := 0
		err := tc.ScanPartition("inventory", []spi.Value{spi.I64(1)}, func(spi.Row) error {
			n++
			return nil
		})
		if n != 5 {
			t.Errorf("scanned %d rows, want 5", n)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Scanning a non-partitioned table by partition errors.
	db2 := NewDB()
	db2.MustCreateTable(spi.MustSchema("flat", []spi.Column{{Name: "id", Kind: spi.KindInt}}, "id"))
	b := interference.NewBuilder()
	txn := b.TxnType("x", 1)
	step := b.StepType("x")
	eng := New(db2, b.Build())
	err = eng.Exec(context.Background(), Request{Type: &TxnType{Name: "x", ID: txn, Steps: []Step{{
		Name: "x", Type: step,
		Body: func(tc *Ctx) error {
			return tc.ScanPartition("flat", nil, func(spi.Row) error { return nil })
		},
	}}}})
	if err == nil {
		t.Fatal("partition scan of unpartitioned table accepted")
	}
}

func TestCtxScanEarlyStop(t *testing.T) {
	s := newOpSys(t)
	err := s.run(t, func(tc *Ctx) error {
		n := 0
		if err := tc.Scan("inventory", func(spi.Row) error {
			n++
			if n == 3 {
				return ErrStopScan
			}
			return nil
		}); err != nil {
			return err
		}
		if n != 3 {
			t.Errorf("visited %d", n)
		}
		// Error propagation.
		sentinel := errors.New("boom")
		if err := tc.Scan("inventory", func(spi.Row) error { return sentinel }); !errors.Is(err, sentinel) {
			t.Errorf("scan error lost: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCtxUpdateWhere(t *testing.T) {
	s := newOpSys(t)
	err := s.run(t, func(tc *Ctx) error {
		// Double qty of skus 1-2, delete sku 3, leave the rest.
		return tc.UpdateWhere("inventory", []spi.Value{spi.I64(1)},
			func(row spi.Row) (spi.Row, error) {
				switch row[1].Int64() {
				case 1, 2:
					row[2] = spi.I64(row[2].Int64() * 2)
					return row, nil
				case 3:
					return nil, ErrDeleteRow
				case 5:
					return nil, ErrStopScan
				}
				return nil, nil
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(sku int64) (int64, bool) {
		row, err := s.inv.Get(spi.EncodeKey(spi.I64(1), spi.I64(sku)))
		if err != nil {
			return 0, false
		}
		return row[2].Int64(), true
	}
	if q, _ := get(1); q != 20 {
		t.Errorf("sku1 qty %d", q)
	}
	if q, _ := get(2); q != 40 {
		t.Errorf("sku2 qty %d", q)
	}
	if _, ok := get(3); ok {
		t.Error("sku3 not deleted")
	}
	if q, _ := get(4); q != 40 {
		t.Errorf("sku4 qty %d (should be untouched)", q)
	}
}

func TestCtxLookupByIndexAndGetMany(t *testing.T) {
	s := newOpSys(t)
	err := s.run(t, func(tc *Ctx) error {
		rows, err := tc.LookupByIndex("inventory", "by_qty", []spi.Value{spi.I64(30)})
		if err != nil {
			return err
		}
		if len(rows) != 2 { // sku 3 in both regions
			t.Errorf("by_qty(30) found %d rows", len(rows))
		}
		n := 0
		err = tc.GetMany("inventory", invKeys([2]int64{1, 1}, [2]int64{2, 2}, [2]int64{9, 9}), // (9, 9) is missing: skipped
			func(spi.Row) error { n++; return nil })
		if err != nil {
			return err
		}
		if n != 2 {
			t.Errorf("GetMany visited %d rows", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetManyVisitsPresentKeysInOrder: at both tiers GetMany hands the
// visitor the present rows in key order and skips the missing ones, and a
// visitor error stops the read and comes back.
func TestGetManyVisitsPresentKeysInOrder(t *testing.T) {
	pks := invKeys([2]int64{1, 2}, [2]int64{1, 4}, [2]int64{1, 9}, [2]int64{2, 1}, [2]int64{2, 3}, [2]int64{3, 1})
	want := [][2]int64{{1, 2}, {1, 4}, {2, 1}, {2, 3}}
	for _, tier := range []ReadTier{TierLocked, TierSnapshot} {
		s := newOpSys(t)
		err := s.runAt(t, tier, func(tc *Ctx) error {
			var got [][2]int64
			err := tc.GetMany("inventory", pks, func(row spi.Row) error {
				got = append(got, [2]int64{row[0].Int64(), row[1].Int64()})
				return nil
			})
			if err != nil {
				return err
			}
			if !slices.Equal(got, want) {
				t.Errorf("%v: visited %v, want %v", tier, got, want)
			}
			sentinel := errors.New("enough")
			n := 0
			err = tc.GetMany("inventory", pks, func(spi.Row) error { n++; return sentinel })
			if !errors.Is(err, sentinel) || n != 1 {
				t.Errorf("%v: visitor error gave %v after %d rows, want it back after 1", tier, err, n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
	}
}

// TestGetManyLocks: at the locked tier the keys' order is the lock order, so
// unsorted keys are refused before any lock is held; sorted keys take IS on
// the table and on each row's partition granule, and S on each row.
func TestGetManyLocks(t *testing.T) {
	s := newOpSys(t)
	err := s.run(t, func(tc *Ctx) error {
		id := tc.txn.info.ID
		if err := tc.GetMany("inventory", invKeys([2]int64{2, 1}, [2]int64{1, 1}),
			func(spi.Row) error { return nil }); err == nil {
			t.Error("unsorted keys accepted")
		}
		if held := locksOf(tc).HeldItems(tc.txn.info); len(held) != 0 {
			t.Errorf("refused GetMany left locks: %v", held)
		}
		pks := invKeys([2]int64{1, 1}, [2]int64{2, 2})
		if err := tc.GetMany("inventory", pks, func(spi.Row) error { return nil }); err != nil {
			return err
		}
		for _, want := range []struct {
			item spi.Item
			mode spi.Mode
		}{
			{spi.TableItem("inventory"), spi.ModeIS},
			{spi.PartitionItem("inventory", spi.EncodeKey(spi.I64(1))), spi.ModeIS},
			{spi.PartitionItem("inventory", spi.EncodeKey(spi.I64(2))), spi.ModeIS},
			{spi.RowItem("inventory", pks[0]), spi.ModeS},
			{spi.RowItem("inventory", pks[1]), spi.ModeS},
		} {
			if !locksOf(tc).HoldsConventional(id, want.item, want.mode) {
				t.Errorf("%v not held in %v", want.item, want.mode)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetManyRefusesUnsortedKeys: unsorted keys are refused at both tiers,
// before any lock is taken and before any row is visited, so a body that
// works at one tier works at the other.
func TestGetManyRefusesUnsortedKeys(t *testing.T) {
	for _, tier := range []ReadTier{TierLocked, TierSnapshot} {
		s := newOpSys(t)
		before := s.eng.Locks().Stats().Acquisitions
		visited := 0
		err := s.runAt(t, tier, func(tc *Ctx) error {
			return tc.GetMany("inventory", invKeys([2]int64{2, 1}, [2]int64{1, 1}),
				func(spi.Row) error { visited++; return nil })
		})
		if err == nil || !strings.Contains(err.Error(), "not in ascending order") {
			t.Errorf("%v: unsorted keys gave %v, want a refusal", tier, err)
		}
		if visited != 0 {
			t.Errorf("%v: refused GetMany visited %d rows", tier, visited)
		}
		if after := s.eng.Locks().Stats().Acquisitions; after != before {
			t.Errorf("%v: refused GetMany acquired %d locks", tier, after-before)
		}
	}
}

// TestGetManyAllocFree is the CI allocation guard for the batched read (run
// via -run 'AllocFree'): at the snapshot tier a GetMany of 100 keys
// allocates what a GetMany of one does.
func TestGetManyAllocFree(t *testing.T) {
	s := newOpSys(t)
	var pairs [][2]int64
	for sku := int64(1); sku <= 100; sku++ {
		if err := s.inv.Insert(spi.Row{spi.I64(3), spi.I64(sku), spi.I64(sku)}); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, [2]int64{3, sku})
	}
	s.inv.ResetVersions()
	one, hundred := invKeys(pairs[:1]...), invKeys(pairs...)
	err := s.runAt(t, TierSnapshot, func(tc *Ctx) error {
		visited := 0
		visit := func(spi.Row) error { visited++; return nil }
		small := testing.AllocsPerRun(20, func() { tc.GetMany("inventory", one, visit) })
		large := testing.AllocsPerRun(20, func() { tc.GetMany("inventory", hundred, visit) })
		if visited != 21+21*100 {
			t.Fatalf("visited %d rows", visited)
		}
		if large != small {
			t.Errorf("GetMany: %.1f allocs over 100 keys against %.1f over one, want equal", large, small)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCtxStatementsAllocFree is the CI allocation guard for the statement
// path (run via -run 'AllocFree'): Get, Update and Insert allocate only what
// they keep — no closure for the environment, no result moved to the heap,
// no partition key encoded. A Get keeps its key. An Update of a row the step
// already wrote, leaving its indexed columns alone, keeps its key and its
// row copy. An Insert of a new row into an unindexed table keeps its key —
// still encoded on both sides of the SPI — the table's record and version
// chain for it, and the lock table's state and grant (two objects) for its
// row.
func TestCtxStatementsAllocFree(t *testing.T) {
	s := newOpSys(t)
	flat := s.db.MustCreateTable(spi.MustSchema("flat", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "v", Kind: spi.KindInt},
	}, "id"))
	const runs = 100
	rows := make([]spi.Row, runs+1) // AllocsPerRun runs once more to warm up
	for i := range rows {
		rows[i] = spi.Row{spi.I64(int64(i + 1)), spi.I64(0)}
	}
	err := s.run(t, func(tc *Ctx) error {
		key := []spi.Value{spi.I64(1), spi.I64(2)}
		same := func(spi.Row) error { return nil }
		next := 0
		for _, c := range []struct {
			name string
			max  float64
			op   func()
		}{
			{"Get", 1, func() { tc.Get("inventory", spi.I64(1), spi.I64(3)) }},
			{"Update", 2, func() { tc.Update("inventory", key, same) }},
			{"Insert", 7, func() { tc.Insert("flat", rows[next]); next++ }},
		} {
			if n := testing.AllocsPerRun(runs, c.op); n > c.max {
				t.Errorf("%s: %.1f allocs/op, want at most %.0f", c.name, n, c.max)
			}
		}
		if next != runs+1 || flat.Len() != runs+1 {
			t.Errorf("inserted %d rows, table holds %d; want %d", next, flat.Len(), runs+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCtxClaimMin(t *testing.T) {
	s := newOpSys(t)
	var first, second int64
	err := s.run(t, func(tc *Ctx) error {
		row, err := tc.ClaimMin("inventory", PartIndex, []spi.Value{spi.I64(1)})
		if err != nil {
			return err
		}
		first = row[1].Int64()
		row, err = tc.ClaimMin("inventory", PartIndex, []spi.Value{spi.I64(1)})
		if err != nil {
			return err
		}
		second = row[1].Int64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 2 {
		t.Fatalf("claimed %d then %d, want 1 then 2", first, second)
	}
	if s.inv.Exists(spi.EncodeKey(spi.I64(1), spi.I64(1))) {
		t.Fatal("claimed row still present")
	}
	// Draining a partition returns nil.
	err = s.run(t, func(tc *Ctx) error {
		for {
			row, err := tc.ClaimMin("inventory", PartIndex, []spi.Value{spi.I64(1)})
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClaimMinWaitsOutAnEarlierClaimer: a claimer that may not interleave with
// an earlier, still uncommitted claimer of the same queue waits for it instead
// of popping the next row — so a compensated claim goes back to the HEAD of
// the queue, never behind a row a later claimer took for good.
func TestClaimMinWaitsOutAnEarlierClaimer(t *testing.T) {
	for _, firstCommits := range []bool{true, false} {
		db := NewDB()
		q := db.MustCreateTable(spi.MustSchema("queue", []spi.Column{
			{Name: "lane", Kind: spi.KindInt},
			{Name: "seq", Kind: spi.KindInt},
		}, "lane", "seq"))
		if err := q.AddIndex(spi.IndexDef{Name: "by_lane", Columns: []string{"lane"}}); err != nil {
			t.Fatal(err)
		}
		for seq := int64(1); seq <= 3; seq++ {
			if err := q.Insert(spi.Row{spi.I64(1), spi.I64(seq)}); err != nil {
				t.Fatal(err)
			}
		}
		b := interference.NewBuilder()
		claimer := b.TxnType("claimer", 2)
		claim, rest, undo := b.StepType("claim"), b.StepType("rest"), b.StepType("undo")
		b.AllowInterleaveEverywhere(undo, claimer) // nothing else: claim may not interleave with a claimer
		eng := New(db, b.Build(), WithWaitTimeout(5*time.Second))

		type area struct{ got int64 }
		claimed := make(chan int64, 2)
		gate := make(chan error)
		tt := func(second func() error) *TxnType {
			return &TxnType{
				Name: "claimer", ID: claimer,
				Steps: []Step{
					{Name: "claim", Type: claim, Body: func(tc *Ctx) error {
						row, err := tc.ClaimMin("queue", "by_lane", []spi.Value{spi.I64(1)})
						if err != nil {
							return err
						}
						tc.Args().(*area).got = row[1].Int64()
						claimed <- row[1].Int64()
						return nil
					}},
					{Name: "rest", Type: rest, Body: func(*Ctx) error { return second() }},
				},
				Comp: &Compensation{Type: undo, Body: func(tc *Ctx, _ int) error {
					return tc.Insert("queue", spi.Row{spi.I64(1), spi.I64(tc.Args().(*area).got)})
				}},
			}
		}
		firstDone := make(chan error, 1)
		go func() {
			firstDone <- eng.Exec(context.Background(), Request{Type: tt(func() error { return <-gate }), Args: &area{}})
		}()
		if got := <-claimed; got != 1 {
			t.Fatalf("first claimer popped %d, want 1", got)
		}
		secondDone := make(chan error, 1)
		go func() {
			secondDone <- eng.Exec(context.Background(), Request{Type: tt(func() error { return nil }), Args: &area{}})
		}()
		select {
		case got := <-claimed:
			t.Fatalf("second claimer popped %d past an uncommitted claim", got)
		case <-time.After(50 * time.Millisecond):
		}
		want := int64(2)
		if firstCommits {
			gate <- nil
			if err := <-firstDone; err != nil {
				t.Fatal(err)
			}
		} else {
			gate <- ErrUserAbort
			if err := <-firstDone; !IsCompensated(err) {
				t.Fatalf("first claimer: %v, want a compensated rollback", err)
			}
			want = 1 // the compensation put the head back
		}
		if got := <-claimed; got != want {
			t.Fatalf("second claimer popped %d, want %d (first committed: %v)", got, want, firstCommits)
		}
		if err := <-secondDone; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCtxUpdateRejectsPKChange(t *testing.T) {
	s := newOpSys(t)
	err := s.run(t, func(tc *Ctx) error {
		return tc.Update("inventory", []spi.Value{spi.I64(1), spi.I64(4)},
			func(row spi.Row) error {
				row[1] = spi.I64(99)
				return nil
			})
	})
	if err == nil {
		t.Fatal("primary-key mutation accepted")
	}
}

func TestCtxStepUndoRestoresEverything(t *testing.T) {
	s := newOpSys(t)
	before := s.inv.Len()
	err := s.run(t, func(tc *Ctx) error {
		if err := tc.Insert("inventory", spi.Row{spi.I64(7), spi.I64(7), spi.I64(7)}); err != nil {
			return err
		}
		if err := tc.Delete("inventory", spi.I64(1), spi.I64(1)); err != nil {
			return err
		}
		if err := tc.Update("inventory", []spi.Value{spi.I64(1), spi.I64(2)},
			func(row spi.Row) error {
				row[2] = spi.I64(-1)
				return nil
			}); err != nil {
			return err
		}
		return tc.Abort("never mind")
	})
	if !errors.Is(err, ErrUserAbort) {
		t.Fatalf("got %v", err)
	}
	if s.inv.Len() != before {
		t.Fatal("row count changed by aborted step")
	}
	row, err := s.inv.Get(spi.EncodeKey(spi.I64(1), spi.I64(2)))
	if err != nil || row[2].Int64() != 20 {
		t.Fatal("update not undone")
	}
	if !s.inv.Exists(spi.EncodeKey(spi.I64(1), spi.I64(1))) {
		t.Fatal("delete not undone")
	}
}

func TestPartitionValidation(t *testing.T) {
	db := NewDB()
	schema := spi.MustSchema("t", []spi.Column{
		{Name: "a", Kind: spi.KindInt},
		{Name: "b", Kind: spi.KindInt},
	}, "a")
	if _, err := db.CreateTable(schema, "zzz"); err == nil {
		t.Fatal("unknown partition column accepted")
	}
	if _, err := db.CreateTable(schema, "b"); err == nil {
		t.Fatal("non-PK partition column accepted")
	}
	// Partition columns are the leading primary-key columns, in key order: a
	// key column that is not a leading one is refused like a non-key column.
	pair := spi.MustSchema("pair", []spi.Column{
		{Name: "a", Kind: spi.KindInt},
		{Name: "b", Kind: spi.KindInt},
		{Name: "c", Kind: spi.KindInt},
	}, "a", "b")
	for _, by := range [][]string{{"b"}, {"b", "a"}, {"a", "c"}} {
		if _, err := db.CreateTable(pair, by...); err == nil {
			t.Fatalf("partition by %v of primary key (a, b) accepted", by)
		}
	}
	if db.Table("pair") != nil {
		t.Fatal("a refused declaration left a table behind")
	}
	if _, err := db.CreateTable(pair, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(schema, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(schema, "a"); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

// TestPartitionItemIsEncodedPartitionValues: the partition granule sliced
// from a primary key is the item encoding the partition values gives — the
// lock identity every earlier release used — over a string column whose
// payload holds the escaped NUL. A structural write locks it X and marks it,
// an update locks it IX, a read IS.
func TestPartitionItemIsEncodedPartitionValues(t *testing.T) {
	db := NewDB()
	tab := db.MustCreateTable(spi.MustSchema("zoned", []spi.Column{
		{Name: "region", Kind: spi.KindString},
		{Name: "zone", Kind: spi.KindInt},
		{Name: "id", Kind: spi.KindInt},
		{Name: "v", Kind: spi.KindInt},
	}, "region", "zone", "id"), "region", "zone")
	row := func(region string, zone, id int64) spi.Row {
		return spi.Row{spi.Str(region), spi.I64(zone), spi.I64(id), spi.I64(0)}
	}
	for _, r := range []spi.Row{row("n\x00rth", 7, 1), row("south", 1, 1), row("east", 2, 1)} {
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	b := interference.NewBuilder()
	txn, step := b.TxnType("op", 1), b.StepType("op")
	b.AllowInterleaveEverywhere(step, txn)
	eng := New(db, b.Build(), WithWaitTimeout(5*time.Second))
	part := func(region string, zone int64) spi.Item {
		return spi.PartitionItem("zoned", spi.EncodeKey(spi.Str(region), spi.I64(zone)))
	}
	err := eng.Exec(context.Background(), Request{Type: &TxnType{
		Name: "op", ID: txn,
		Steps: []Step{{Name: "op", Type: step, Body: func(tc *Ctx) error {
			if err := tc.Insert("zoned", row("n\x00rth", 7, 2)); err != nil {
				return err
			}
			if err := tc.Delete("zoned", spi.Str("south"), spi.I64(1), spi.I64(1)); err != nil {
				return err
			}
			if err := tc.Update("zoned", []spi.Value{spi.Str("east"), spi.I64(2), spi.I64(1)},
				func(spi.Row) error { return nil }); err != nil {
				return err
			}
			if _, err := tc.Get("zoned", spi.Str("n\x00rth"), spi.I64(7), spi.I64(1)); err != nil {
				return err
			}
			id := tc.txn.info.ID
			for _, want := range []struct {
				item   spi.Item
				mode   spi.Mode
				marked bool
			}{
				{part("n\x00rth", 7), spi.ModeX, true},
				{part("south", 1), spi.ModeX, true},
				{part("east", 2), spi.ModeIX, false},
			} {
				if !locksOf(tc).HoldsConventional(id, want.item, want.mode) {
					t.Errorf("%v not held in %v", want.item, want.mode)
				}
				if got := slices.Contains(tc.wroteItems, want.item); got != want.marked {
					t.Errorf("%v among the step's marked items: %v, want %v", want.item, got, want.marked)
				}
			}
			return nil
		}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneLevelAdmitsDisjointInstances is the paper's §3.2 point: with run-time
// item identity the one-level ACC lets two instances that touch disjoint rows
// sit between steps together, although their step type interferes with the
// assertion *type* — a design without item identity would have to serialize
// them on that false conflict.
func TestOneLevelAdmitsDisjointInstances(t *testing.T) {
	db := NewDB()
	tab := db.MustCreateTable(spi.MustSchema("t", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "v", Kind: spi.KindInt},
	}, "id"))
	for i := int64(1); i <= 4; i++ {
		tab.Insert(spi.Row{spi.I64(i), spi.I64(0)})
	}
	b := interference.NewBuilder()
	txn := b.TxnType("w", 2)
	s1 := b.StepType("w1")
	s2 := b.StepType("w2")
	cs := b.StepType("cs")
	a := b.Assertion("mine-stable")
	// w1 interferes with the assertion type (another instance could, in
	// principle, touch the same row — only item identity disproves it).
	b.NoInterference(s2, a)
	b.NoInterference(cs, a)
	for _, st := range []interference.StepTypeID{s1, s2, cs} {
		b.AllowInterleaveEverywhere(st, txn)
	}
	b.PrefixSafe(txn, 1, a)
	eng := New(db, b.Build(), WithMode(ModeACC), WithWaitTimeout(5*time.Second))
	assert := &Assertion{
		ID: a, Name: "mine-stable",
		Covers: func(args any, item spi.Item) bool {
			id := args.(int64)
			return item.Table == "t" && item.Level == spi.LevelRow &&
				item.Key == spi.EncodeKey(spi.I64(id))
		},
	}
	arrive, release := make(chan struct{}, 2), make(chan struct{})
	eng.MustRegister(&TxnType{
		Name: "w", ID: txn,
		Steps: []Step{
			{Name: "w1", Type: s1, Body: func(tc *Ctx) error {
				id := tc.Args().(int64)
				return tc.Update("t", []spi.Value{spi.I64(id)}, func(row spi.Row) error {
					row[1] = spi.I64(1)
					return nil
				})
			}},
			{Name: "w2", Type: s2, Pre: []*Assertion{assert}, Body: func(tc *Ctx) error {
				arrive <- struct{}{}
				<-release
				return nil
			}},
		},
		Comp: &Compensation{Type: cs, Body: func(*Ctx, int) error { return nil }},
	})
	errs := make(chan error, 2)
	go func() { errs <- eng.Run("w", int64(1)) }()
	go func() { errs <- eng.Run("w", int64(2)) }()
	for i := 0; i < 2; i++ {
		select {
		case <-arrive:
		case <-time.After(2 * time.Second):
			t.Fatal("one-level ACC serialized disjoint instances")
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
