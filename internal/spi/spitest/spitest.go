// Package spitest is the executable contract of the storage SPI: a
// conformance suite any spi.Store implementation must pass before the
// engine will run correctly over it. Run it from a backend's tests as
//
//	func TestConformance(t *testing.T) {
//		spitest.Run(t, func() spi.Store { return NewStore() })
//	}
//
// The suite exercises everything the scheduler relies on — CRUD with exact
// pre-image capture, the sentinel errors, the refusal of an Update that
// changes a fixed column, secondary-index ordering, and the full
// version-chain protocol behind the lock-free read tiers (seeding,
// publication, as-of resolution, pruning), and that a row handed out never
// changes — but deliberately nothing more: anything not tested here is not
// part of the contract, and a backend is free to implement it any way it
// likes. The bundled B+-tree store (internal/storage) passes it verbatim;
// Frozen and FrozenStores check the same row contract under a running
// engine.
package spitest

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"accdb/internal/spi"
)

// Run executes the full conformance suite, opening a fresh Store per
// subtest through open.
func Run(t *testing.T, open func() spi.Store) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(t *testing.T, s spi.Store)
	}{
		{"StoreBasics", testStoreBasics},
		{"CRUD", testCRUD},
		{"FixedColumns", testFixedColumns},
		{"PreImages", testPreImages},
		{"Apply", testApply},
		{"Scan", testScan},
		{"Index", testIndex},
		{"IndexRange", testIndexRange},
		{"VersionSeed", testVersionSeed},
		{"VersionPublish", testVersionPublish},
		{"VersionTombstone", testVersionTombstone},
		{"ScanAsOf", testScanAsOf},
		{"IndexScanAsOf", testIndexScanAsOf},
		{"PruneVersions", testPruneVersions},
		{"ResetVersions", testResetVersions},
		{"RowStability", testRowStability},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.fn(t, open()) })
	}
}

// itemsSchema is the suite's workhorse relation.
func itemsSchema() *spi.Schema {
	return spi.MustSchema("items", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "grp", Kind: spi.KindInt},
		{Name: "name", Kind: spi.KindString},
	}, "id")
}

func mkTable(t *testing.T, s spi.Store) spi.Table {
	t.Helper()
	tab, err := s.Create(itemsSchema())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tab
}

func row(id, grp int64, name string) spi.Row {
	return spi.Row{spi.I64(id), spi.I64(grp), spi.Str(name)}
}

func pk(id int64) spi.Key { return spi.EncodeKey(spi.I64(id)) }

func insert(t *testing.T, tab spi.Table, rows ...spi.Row) {
	t.Helper()
	for _, r := range rows {
		if err := tab.Insert(r); err != nil {
			t.Fatalf("Insert(%v): %v", r, err)
		}
	}
}

func testStoreBasics(t *testing.T, s spi.Store) {
	if got := s.Table("items"); got != nil {
		t.Fatalf("Table on empty store = %#v, want untyped nil", got)
	}
	tab := mkTable(t, s)
	if _, err := s.Create(itemsSchema()); err == nil {
		t.Fatal("Create with duplicate name succeeded")
	}
	if got := s.Table("items"); got != tab {
		t.Fatalf("Table(items) = %#v, want the created table", got)
	}
	if got := s.Table("nope"); got != nil {
		// A typed-nil pointer in the interface is the classic adapter bug:
		// it compares unequal to nil and panics on first use.
		t.Fatalf("Table(nope) = %#v, want untyped nil", got)
	}
	names := s.Names()
	if len(names) != 1 || names[0] != "items" {
		t.Fatalf("Names() = %v, want [items]", names)
	}
	if tab.Schema().Name != "items" {
		t.Fatalf("Schema().Name = %q", tab.Schema().Name)
	}
}

func testCRUD(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "ann"), row(2, 10, "bob"))
	if n := tab.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}

	if err := tab.Insert(row(1, 99, "dup")); !errors.Is(err, spi.ErrDuplicate) {
		t.Fatalf("duplicate Insert: err = %v, want ErrDuplicate", err)
	}
	got, err := tab.Get(pk(1))
	if err != nil {
		t.Fatalf("Get(1): %v", err)
	}
	if !got.Equal(row(1, 10, "ann")) {
		t.Fatalf("Get(1) = %v", got)
	}
	if _, err := tab.Get(pk(9)); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("Get(absent): err = %v, want ErrNotFound", err)
	}
	if !tab.Exists(pk(2)) || tab.Exists(pk(9)) {
		t.Fatal("Exists wrong")
	}

	if _, err := tab.Update(pk(1), row(7, 10, "ann")); err == nil {
		t.Fatal("Update changing the primary key succeeded")
	}
	if _, err := tab.Update(pk(9), row(9, 0, "x")); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("Update(absent): err = %v, want ErrNotFound", err)
	}
	if _, err := tab.Delete(pk(9)); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("Delete(absent): err = %v, want ErrNotFound", err)
	}
	if _, err := tab.Delete(pk(2)); err != nil {
		t.Fatalf("Delete(2): %v", err)
	}
	if tab.Len() != 1 || tab.Exists(pk(2)) {
		t.Fatal("Delete did not remove the row")
	}
}

// An Update may not change a column the schema declares fixed, compared as
// the primary key is, floats bit for bit: +0 to -0 is a change. A refused
// Update leaves the row as it was; one that changes only unfixed columns,
// or rewrites a fixed one with the same value, goes through.
func testFixedColumns(t *testing.T, s spi.Store) {
	tab, err := s.Create(spi.MustSchema("rates", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "tax", Kind: spi.KindFloat, Fixed: true},
		{Name: "label", Kind: spi.KindString, Fixed: true},
		{Name: "ytd", Kind: spi.KindInt},
	}, "id"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rate := func(tax float64, label string, ytd int64) spi.Row {
		return spi.Row{spi.I64(1), spi.F64(tax), spi.Str(label), spi.I64(ytd)}
	}
	insert(t, tab, rate(0, "a", 0))
	for _, r := range []spi.Row{rate(0.5, "a", 0), rate(0, "b", 0), rate(math.Copysign(0, -1), "a", 0)} {
		if _, err := tab.Update(pk(1), r); !errors.Is(err, spi.ErrFixed) {
			t.Errorf("Update to %v: err = %v, want ErrFixed", r, err)
		}
	}
	if got, _ := tab.Get(pk(1)); !got.Equal(rate(0, "a", 0)) || math.Signbit(got[1].F) {
		t.Fatalf("refused Updates changed the row: %v", got)
	}
	if _, err := tab.Update(pk(1), rate(0, "a", 7)); err != nil {
		t.Fatalf("Update of an unfixed column: %v", err)
	}
	if got, _ := tab.Get(pk(1)); got[3].Int64() != 7 {
		t.Fatalf("Update not applied: %v", got)
	}
}

// Pre-image capture must be exact: the scheduler's undo logging and version
// publication both depend on Update/Delete returning the image that was
// stored, not the one passed in.
func testPreImages(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "v0"))
	old, err := tab.Update(pk(1), row(1, 10, "v1"))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if !old.Equal(row(1, 10, "v0")) {
		t.Fatalf("Update pre-image = %v, want v0", old)
	}
	old, err = tab.Delete(pk(1))
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if !old.Equal(row(1, 10, "v1")) {
		t.Fatalf("Delete pre-image = %v, want v1", old)
	}
}

func testApply(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	tab.Apply(pk(1), row(1, 10, "redo")) // upsert with no prior row
	if got, _ := tab.Get(pk(1)); !got.Equal(row(1, 10, "redo")) {
		t.Fatalf("Apply upsert: Get = %v", got)
	}
	tab.Apply(pk(1), row(1, 11, "redo2")) // overwrite
	if got, _ := tab.Get(pk(1)); !got.Equal(row(1, 11, "redo2")) {
		t.Fatalf("Apply overwrite: Get = %v", got)
	}
	tab.Apply(pk(1), nil) // delete
	if tab.Exists(pk(1)) {
		t.Fatal("Apply(nil) did not delete")
	}
	tab.Apply(pk(2), nil) // deleting an absent key is a no-op
	if tab.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tab.Len())
	}
}

func testScan(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 1, "a"), row(2, 1, "b"), row(3, 2, "c"))
	seen := map[int64]bool{}
	tab.Scan(func(_ spi.Key, r spi.Row) bool {
		seen[r[0].Int64()] = true
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("Scan visited %v, want 3 rows", seen)
	}
	n := 0
	tab.Scan(func(spi.Key, spi.Row) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Scan ignored early stop: visited %d", n)
	}
}

func testIndex(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	// Insert before AddIndex: the index must backfill.
	insert(t, tab, row(3, 20, "c"), row(1, 10, "a"))
	if err := tab.AddIndex(spi.IndexDef{Name: "by_grp", Columns: []string{"grp"}}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	if err := tab.AddIndex(spi.IndexDef{Name: "bad", Columns: []string{"nope"}}); err == nil {
		t.Fatal("AddIndex over a missing column succeeded")
	}
	// Insert after: the index must be maintained.
	insert(t, tab, row(2, 10, "b"), row(4, 30, "d"))

	var ids []int64
	err := tab.IndexScan("by_grp", []spi.Value{spi.I64(10)}, func(_ spi.Key, r spi.Row) bool {
		ids = append(ids, r[0].Int64())
		return true
	})
	if err != nil {
		t.Fatalf("IndexScan: %v", err)
	}
	// Ties on the indexed columns break by primary key.
	if fmt.Sprint(ids) != "[1 2]" {
		t.Fatalf("IndexScan(grp=10) = %v, want [1 2]", ids)
	}
	if err := tab.IndexScan("nope", nil, func(spi.Key, spi.Row) bool { return true }); err == nil {
		t.Fatal("IndexScan over a missing index succeeded")
	}

	// Update moving a row across index values must move its entry.
	if _, err := tab.Update(pk(2), row(2, 30, "b")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	ids = nil
	tab.IndexScan("by_grp", []spi.Value{spi.I64(30)}, func(_ spi.Key, r spi.Row) bool {
		ids = append(ids, r[0].Int64())
		return true
	})
	if fmt.Sprint(ids) != "[2 4]" {
		t.Fatalf("IndexScan(grp=30) after move = %v, want [2 4]", ids)
	}
	// Delete must remove the entry.
	if _, err := tab.Delete(pk(4)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	ids = nil
	tab.IndexScan("by_grp", []spi.Value{spi.I64(30)}, func(_ spi.Key, r spi.Row) bool {
		ids = append(ids, r[0].Int64())
		return true
	})
	if fmt.Sprint(ids) != "[2]" {
		t.Fatalf("IndexScan(grp=30) after delete = %v, want [2]", ids)
	}
}

func testIndexRange(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	if err := tab.AddIndex(spi.IndexDef{Name: "by_grp", Columns: []string{"grp"}}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	for i := int64(1); i <= 5; i++ {
		insert(t, tab, row(i, i*10, "r"))
	}
	var ids []int64
	collect := func(_ spi.Key, r spi.Row) bool { ids = append(ids, r[0].Int64()); return true }

	// [20, 40) excludes the hi bound.
	if err := tab.IndexRange("by_grp", []spi.Value{spi.I64(20)}, []spi.Value{spi.I64(40)}, collect); err != nil {
		t.Fatalf("IndexRange: %v", err)
	}
	if fmt.Sprint(ids) != "[2 3]" {
		t.Fatalf("IndexRange[20,40) = %v, want [2 3]", ids)
	}
	// nil hi is unbounded.
	ids = nil
	if err := tab.IndexRange("by_grp", []spi.Value{spi.I64(40)}, nil, collect); err != nil {
		t.Fatalf("IndexRange: %v", err)
	}
	if fmt.Sprint(ids) != "[4 5]" {
		t.Fatalf("IndexRange[40,∞) = %v, want [4 5]", ids)
	}
}

// Every mutation must seed an absent chain with the key's prior committed
// value at CSN 0 — that is what lets a snapshot read a key some concurrent
// uncommitted step has since overwritten in the base table.
func testVersionSeed(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "committed"))
	tab.ResetVersions() // declare the load quiescent

	if _, err := tab.Update(pk(1), row(1, 10, "dirty")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if n := tab.ChainLen(pk(1)); n != 1 {
		t.Fatalf("ChainLen after first mutation = %d, want 1 (the seed)", n)
	}
	// The as-of read must see the pre-image, not the dirty base row.
	got, err := tab.GetAsOf(pk(1), 5)
	if err != nil {
		t.Fatalf("GetAsOf: %v", err)
	}
	if !got.Equal(row(1, 10, "committed")) {
		t.Fatalf("GetAsOf during uncommitted overwrite = %v, want the pre-image", got)
	}
	// An insert seeds with a tombstone: the key did not exist before.
	insert(t, tab, row(2, 10, "new"))
	if _, err := tab.GetAsOf(pk(2), 5); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("GetAsOf(uncommitted insert): err = %v, want ErrNotFound", err)
	}
	// A second mutation must not re-seed.
	if _, err := tab.Update(pk(1), row(1, 10, "dirty2")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if n := tab.ChainLen(pk(1)); n != 1 {
		t.Fatalf("ChainLen after second mutation = %d, want 1", n)
	}
}

func testVersionPublish(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "v0"))
	tab.ResetVersions()

	prior := row(1, 10, "v0")
	if _, err := tab.Update(pk(1), row(1, 10, "v1")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	tab.PublishVersion(pk(1), prior, row(1, 10, "v1"), 10)
	if _, err := tab.Update(pk(1), row(1, 10, "v2")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	tab.PublishVersion(pk(1), prior, row(1, 10, "v2"), 20)

	for _, tc := range []struct {
		asOf spi.CSN
		want string
	}{{5, "v0"}, {10, "v1"}, {19, "v1"}, {20, "v2"}, {spi.MaxCSN, "v2"}} {
		got, err := tab.GetAsOf(pk(1), tc.asOf)
		if err != nil {
			t.Fatalf("GetAsOf(%d): %v", tc.asOf, err)
		}
		if got[2].Text() != tc.want {
			t.Fatalf("GetAsOf(%d) = %q, want %q", tc.asOf, got[2].Text(), tc.want)
		}
	}
	st := tab.VersionStats()
	if st.Chains != 1 || st.Versions != 3 {
		t.Fatalf("VersionStats = %+v, want 1 chain / 3 versions", st)
	}
	if n := tab.ChainLen(pk(1)); n != 3 {
		t.Fatalf("ChainLen = %d, want 3", n)
	}
}

func testVersionTombstone(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "v0"))
	tab.ResetVersions()

	prior := row(1, 10, "v0")
	if _, err := tab.Delete(pk(1)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	tab.PublishVersion(pk(1), prior, nil, 10) // committed delete: tombstone

	if got, err := tab.GetAsOf(pk(1), 5); err != nil || !got.Equal(prior) {
		t.Fatalf("GetAsOf(5) = %v, %v; want the pre-image", got, err)
	}
	if _, err := tab.GetAsOf(pk(1), 10); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("GetAsOf(10) past the tombstone: err = %v, want ErrNotFound", err)
	}
}

func testScanAsOf(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "a"), row(2, 10, "b"))
	tab.ResetVersions()

	// Key 3 inserted and published at CSN 10; key 2 deleted at CSN 10;
	// key 1 untouched (as-of reads fall back to the base row).
	insert(t, tab, row(3, 10, "c"))
	tab.PublishVersion(pk(3), nil, row(3, 10, "c"), 10)
	prior2 := row(2, 10, "b")
	if _, err := tab.Delete(pk(2)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	tab.PublishVersion(pk(2), prior2, nil, 10)

	snapshot := func(asOf spi.CSN) map[int64]bool {
		got := map[int64]bool{}
		tab.ScanAsOf(asOf, func(_ spi.Key, r spi.Row) bool {
			got[r[0].Int64()] = true
			return true
		})
		return got
	}
	if got := snapshot(5); !got[1] || !got[2] || got[3] || len(got) != 2 {
		t.Fatalf("ScanAsOf(5) = %v, want {1,2}", got)
	}
	if got := snapshot(10); !got[1] || got[2] || !got[3] || len(got) != 2 {
		t.Fatalf("ScanAsOf(10) = %v, want {1,3}", got)
	}
}

func testIndexScanAsOf(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	if err := tab.AddIndex(spi.IndexDef{Name: "by_grp", Columns: []string{"grp"}}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	insert(t, tab, row(1, 10, "old"))
	tab.ResetVersions()

	// Contents resolve as-of.
	prior := row(1, 10, "old")
	if _, err := tab.Update(pk(1), row(1, 10, "new")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	tab.PublishVersion(pk(1), prior, row(1, 10, "new"), 10)
	// Membership is read-ASAP: a row inserted after asOf is walked, but its
	// chain proves it absent, so it must be skipped.
	insert(t, tab, row(2, 10, "later"))

	var names []string
	err := tab.IndexScanAsOf("by_grp", []spi.Value{spi.I64(10)}, 5, func(_ spi.Key, r spi.Row) bool {
		names = append(names, r[2].Text())
		return true
	})
	if err != nil {
		t.Fatalf("IndexScanAsOf: %v", err)
	}
	if fmt.Sprint(names) != "[old]" {
		t.Fatalf("IndexScanAsOf(asOf=5) = %v, want [old]", names)
	}
	if err := tab.IndexScanAsOf("nope", nil, 5, func(spi.Key, spi.Row) bool { return true }); err == nil {
		t.Fatal("IndexScanAsOf over a missing index succeeded")
	}
}

func testPruneVersions(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "v0"))
	tab.ResetVersions()

	prior := row(1, 10, "v0")
	for i, name := range []string{"v1", "v2", "v3"} {
		if _, err := tab.Update(pk(1), row(1, 10, name)); err != nil {
			t.Fatalf("Update: %v", err)
		}
		tab.PublishVersion(pk(1), prior, row(1, 10, name), spi.CSN(10*(i+1)))
	}
	// Chain: seed@0, v1@10, v2@20, v3@30. Floor 20 keeps v2 (it serves the
	// oldest snapshot) and v3; seed and v1 are unreachable.
	pruned, dropped := tab.PruneVersions(20)
	if pruned != 2 || dropped != 0 {
		t.Fatalf("PruneVersions(20) = (%d, %d), want (2, 0)", pruned, dropped)
	}
	if got, err := tab.GetAsOf(pk(1), 20); err != nil || got[2].Text() != "v2" {
		t.Fatalf("GetAsOf(20) after prune = %v, %v; want v2", got, err)
	}
	// Floor past the head: the single survivor is value-identical to the
	// base row, so the chain may be dropped entirely...
	if _, dropped = tab.PruneVersions(40); dropped != 1 {
		t.Fatalf("PruneVersions(40) dropped = %d, want 1", dropped)
	}
	if n := tab.ChainLen(pk(1)); n != 0 {
		t.Fatalf("ChainLen after drop = %d, want 0", n)
	}
	// ...and the base-row fallback must now serve the value.
	if got, err := tab.GetAsOf(pk(1), 5); err != nil || got[2].Text() != "v3" {
		t.Fatalf("GetAsOf after drop = %v, %v; want the base row", got, err)
	}
	// The next mutation re-seeds.
	if _, err := tab.Update(pk(1), row(1, 10, "v4")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if n := tab.ChainLen(pk(1)); n != 1 {
		t.Fatalf("ChainLen after re-seed = %d, want 1", n)
	}
	// A chain whose survivor differs from the base row (an uncommitted
	// overwrite is in flight) must NOT be dropped.
	if _, dropped = tab.PruneVersions(40); dropped != 0 {
		t.Fatalf("PruneVersions dropped a chain shielding an uncommitted write")
	}
}

func testResetVersions(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	insert(t, tab, row(1, 10, "v0"))
	if st := tab.VersionStats(); st.Chains != 1 {
		t.Fatalf("VersionStats before reset = %+v, want 1 chain (the insert seed)", st)
	}
	tab.ResetVersions()
	if st := tab.VersionStats(); st.Chains != 0 || st.Versions != 0 {
		t.Fatalf("VersionStats after reset = %+v, want empty", st)
	}
	if got, err := tab.GetAsOf(pk(1), 0); err != nil || !got.Equal(row(1, 10, "v0")) {
		t.Fatalf("GetAsOf after reset = %v, %v; want the base row", got, err)
	}
}

// Rows are immutable values: whatever the store handed out — from Get,
// GetAsOf, Update's or Delete's return, or any visitor — must still read as
// it did when first seen, whatever happens to its key afterwards.
func testRowStability(t *testing.T, s spi.Store) {
	tab := mkTable(t, s)
	if err := tab.AddIndex(spi.IndexDef{Name: "by_grp", Columns: []string{"grp"}}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	insert(t, tab, row(1, 10, "v0"), row(2, 10, "other"))
	tab.ResetVersions()

	type held struct {
		from      string
		row, want spi.Row
	}
	var all []held
	hold := func(from string, r spi.Row) {
		if r != nil {
			all = append(all, held{from, r, r.Clone()})
		}
	}
	// observe collects a row from every way the store hands one out.
	observe := func(stage string) {
		visit := func(from string) func(spi.Key, spi.Row) bool {
			return func(_ spi.Key, r spi.Row) bool { hold(stage+"/"+from, r); return true }
		}
		r, _ := tab.Get(pk(1))
		hold(stage+"/Get", r)
		for _, asOf := range []spi.CSN{0, 15, 25, spi.MaxCSN} {
			r, _ = tab.GetAsOf(pk(1), asOf)
			hold(stage+"/GetAsOf", r)
		}
		tab.Scan(visit("Scan"))
		tab.ScanAsOf(15, visit("ScanAsOf"))
		grp := []spi.Value{spi.I64(10)}
		tab.IndexScan("by_grp", grp, visit("IndexScan"))
		tab.IndexRange("by_grp", grp, nil, visit("IndexRange"))
		tab.IndexScanAsOf("by_grp", grp, 15, visit("IndexScanAsOf"))
	}
	step := func(stage string, old spi.Row, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		hold(stage, old)
		observe(stage)
	}

	observe("load")
	old, err := tab.Update(pk(1), row(1, 10, "v1"))
	step("Update", old, err)
	tab.PublishVersion(pk(1), row(1, 10, "v0"), row(1, 10, "v1"), 10)
	step("PublishVersion", nil, nil)
	tab.Apply(pk(1), row(1, 20, "v2")) // moves the index entry
	tab.PublishVersion(pk(1), row(1, 10, "v0"), row(1, 20, "v2"), 20)
	step("Apply", nil, nil)
	old, err = tab.Delete(pk(1))
	step("Delete", old, err)
	tab.PublishVersion(pk(1), row(1, 10, "v0"), nil, 30)
	tab.Apply(pk(1), row(1, 10, "v3")) // the key comes back
	step("Apply-reinsert", nil, nil)
	tab.PruneVersions(25)
	step("PruneVersions", nil, nil)
	tab.ResetVersions()
	step("ResetVersions", nil, nil)

	for _, h := range all {
		if !h.row.Equal(h.want) {
			t.Errorf("row from %s was %v when handed out and reads %v now", h.from, h.want, h.row)
		}
	}
}
