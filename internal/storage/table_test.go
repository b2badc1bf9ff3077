package storage

import (
	"errors"
	"math"
	"sync"
	"testing"

	"accdb/internal/spi"
)

func testSchema(t *testing.T) *spi.Schema {
	t.Helper()
	return spi.MustSchema("emp", []spi.Column{
		{Name: "id", Kind: spi.KindInt},
		{Name: "dept", Kind: spi.KindInt},
		{Name: "name", Kind: spi.KindString},
		{Name: "salary", Kind: spi.KindInt},
	}, "id")
}

func TestNewSchemaValidation(t *testing.T) {
	cols := []spi.Column{{Name: "a", Kind: spi.KindInt}}
	if _, err := spi.NewSchema("", cols, "a"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := spi.NewSchema("t", cols); err == nil {
		t.Error("missing pk accepted")
	}
	if _, err := spi.NewSchema("t", cols, "nope"); err == nil {
		t.Error("unknown pk column accepted")
	}
	if _, err := spi.NewSchema("t", []spi.Column{{Name: "a", Kind: spi.KindInt}, {Name: "a", Kind: spi.KindInt}}, "a"); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := spi.NewSchema("t", []spi.Column{{Name: "", Kind: spi.KindInt}}, "a"); err == nil {
		t.Error("unnamed column accepted")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := testSchema(t)
	if s.Col("dept") != 1 || s.Col("missing") != -1 {
		t.Error("Col lookup broken")
	}
	row := spi.Row{spi.I64(7), spi.I64(2), spi.Str("ann"), spi.I64(100)}
	if err := s.CheckRow(row); err != nil {
		t.Error(err)
	}
	if err := s.CheckRow(row[:2]); err == nil {
		t.Error("short row accepted")
	}
	if err := s.CheckRow(spi.Row{spi.Str("x"), spi.I64(2), spi.Str("ann"), spi.I64(100)}); err == nil {
		t.Error("wrong kind accepted")
	}
	if s.KeyOf(row) != spi.EncodeKey(spi.I64(7)) {
		t.Error("KeyOf mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCol should panic for missing column")
		}
	}()
	s.MustCol("missing")
}

func TestTableCRUD(t *testing.T) {
	tab := NewTable(testSchema(t))
	row := spi.Row{spi.I64(1), spi.I64(10), spi.Str("ann"), spi.I64(500)}
	if err := tab.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row); !errors.Is(err, spi.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	pk := tab.Schema().KeyOf(row)
	got, err := tab.Get(pk)
	if err != nil || !got.Equal(row) {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Update: a changed row is a new row; the table keeps it.
	upd := row.Clone()
	upd[3] = spi.I64(700)
	old, err := tab.Update(pk, upd)
	if err != nil || old[3].Int64() != 500 {
		t.Fatalf("Update old = %v, %v", old, err)
	}
	// The row handed out before the update is shared, not copied, and still
	// reads as it did: the update installed a new image beside it.
	if &got[0] != &row[0] || &old[0] != &row[0] {
		t.Fatal("Get/Update copied the stored image")
	}
	if got[3].Int64() != 500 {
		t.Fatalf("row handed out before the update now reads %v", got)
	}
	if again, _ := tab.Get(pk); &again[0] != &upd[0] {
		t.Fatal("Update copied the row it was given")
	}
	// Update cannot change the PK.
	bad := upd.Clone()
	bad[0] = spi.I64(99)
	if _, err := tab.Update(pk, bad); err == nil {
		t.Fatal("PK change accepted")
	}
	// Delete.
	old, err = tab.Delete(pk)
	if err != nil || old[3].Int64() != 700 {
		t.Fatalf("Delete old = %v, %v", old, err)
	}
	if _, err := tab.Get(pk); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if _, err := tab.Delete(pk); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := tab.Update(pk, upd); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
}

func TestTableSecondaryIndex(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.AddIndex(spi.IndexDef{Name: "by_dept", Columns: []string{"dept"}}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddIndex(spi.IndexDef{Name: "bad", Columns: []string{"zzz"}}); err == nil {
		t.Fatal("index on missing column accepted")
	}
	for i := 1; i <= 30; i++ {
		dept := int64(i % 3)
		if err := tab.Insert(spi.Row{spi.I64(int64(i)), spi.I64(dept), spi.Str("e"), spi.I64(int64(i) * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	err := tab.IndexScan("by_dept", []spi.Value{spi.I64(1)}, func(pk spi.Key, row spi.Row) bool {
		if row[1].Int64() != 1 {
			t.Errorf("wrong dept row: %v", row)
		}
		count++
		return true
	})
	if err != nil || count != 10 {
		t.Fatalf("IndexScan count = %d, err = %v", count, err)
	}
	// Index maintenance on update: move employee 1 from dept 1 to dept 2.
	pk := spi.EncodeKey(spi.I64(1))
	row, _ := tab.Get(pk)
	row = row.Clone() // the stored image is shared: change a copy
	row[1] = spi.I64(2)
	if _, err := tab.Update(pk, row); err != nil {
		t.Fatal(err)
	}
	count = 0
	tab.IndexScan("by_dept", []spi.Value{spi.I64(1)}, func(spi.Key, spi.Row) bool { count++; return true })
	if count != 9 {
		t.Fatalf("after move: dept 1 has %d, want 9", count)
	}
	// Index maintenance on delete.
	if _, err := tab.Delete(pk); err != nil {
		t.Fatal(err)
	}
	count = 0
	tab.IndexScan("by_dept", []spi.Value{spi.I64(2)}, func(spi.Key, spi.Row) bool { count++; return true })
	if count != 10 { // 10 originally in dept 2, +1 moved, -1 deleted
		t.Fatalf("dept 2 has %d, want 10", count)
	}
	// Unknown index errors.
	if err := tab.IndexScan("nope", nil, func(spi.Key, spi.Row) bool { return true }); err == nil {
		t.Fatal("unknown index accepted")
	}
}

func TestTableIndexBackfill(t *testing.T) {
	tab := NewTable(testSchema(t))
	for i := 1; i <= 5; i++ {
		tab.Insert(spi.Row{spi.I64(int64(i)), spi.I64(1), spi.Str("e"), spi.I64(0)})
	}
	if err := tab.AddIndex(spi.IndexDef{Name: "by_dept", Columns: []string{"dept"}}); err != nil {
		t.Fatal(err)
	}
	count := 0
	tab.IndexScan("by_dept", []spi.Value{spi.I64(1)}, func(spi.Key, spi.Row) bool { count++; return true })
	if count != 5 {
		t.Fatalf("backfill found %d, want 5", count)
	}
}

func TestTableIndexRange(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.AddIndex(spi.IndexDef{Name: "by_salary", Columns: []string{"salary"}})
	for i := 1; i <= 10; i++ {
		tab.Insert(spi.Row{spi.I64(int64(i)), spi.I64(0), spi.Str("e"), spi.I64(int64(i) * 100)})
	}
	var salaries []int64
	err := tab.IndexRange("by_salary", []spi.Value{spi.I64(300)}, []spi.Value{spi.I64(700)}, func(_ spi.Key, row spi.Row) bool {
		salaries = append(salaries, row[3].Int64())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{300, 400, 500, 600}
	if len(salaries) != len(want) {
		t.Fatalf("got %v", salaries)
	}
	for i := range want {
		if salaries[i] != want[i] {
			t.Fatalf("got %v, want %v", salaries, want)
		}
	}
}

func TestTableApply(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.AddIndex(spi.IndexDef{Name: "by_dept", Columns: []string{"dept"}})
	row := spi.Row{spi.I64(1), spi.I64(5), spi.Str("x"), spi.I64(1)}
	pk := tab.Schema().KeyOf(row)
	tab.Apply(pk, row) // upsert into empty
	if !tab.Exists(pk) {
		t.Fatal("Apply insert failed")
	}
	row2 := row.Clone()
	row2[1] = spi.I64(6)
	tab.Apply(pk, row2) // overwrite moves index entry
	n := 0
	tab.IndexScan("by_dept", []spi.Value{spi.I64(6)}, func(spi.Key, spi.Row) bool { n++; return true })
	if n != 1 {
		t.Fatal("Apply update did not maintain index")
	}
	tab.Apply(pk, nil) // delete
	if tab.Exists(pk) {
		t.Fatal("Apply delete failed")
	}
	tab.Apply(pk, nil) // idempotent delete
}

func TestTableScanStopsEarly(t *testing.T) {
	tab := NewTable(testSchema(t))
	for i := 0; i < 10; i++ {
		tab.Insert(spi.Row{spi.I64(int64(i)), spi.I64(0), spi.Str("e"), spi.I64(0)})
	}
	n := 0
	tab.Scan(func(spi.Key, spi.Row) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("visited %d", n)
	}
	if tab.Len() != 10 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tab := NewTable(testSchema(t))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64(g*1000 + i)
				row := spi.Row{spi.I64(id), spi.I64(int64(g)), spi.Str("c"), spi.I64(0)}
				if err := tab.Insert(row); err != nil {
					t.Error(err)
					return
				}
				if _, err := tab.Get(spi.EncodeKey(spi.I64(id))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != 1600 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestCatalog(t *testing.T) {
	c := NewStore()
	s := testSchema(t)
	if _, err := c.Create(s); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(s); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if c.Table("emp") == nil {
		t.Fatal("lookup failed")
	}
	if c.Table("nope") != nil {
		t.Fatal("phantom table")
	}
	if len(c.Names()) != 1 {
		t.Fatal("Names wrong")
	}
}

// TestTableOneRecordPerKey: a key has one record for as long as it has a base
// image or a chain — deleted-then-reinserted it is the same record, absent
// from the base it is invisible to Len, Scan and the index scans, and it
// leaves the table when its chain is pruned.
func TestTableOneRecordPerKey(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.AddIndex(spi.IndexDef{Name: "by_dept", Columns: []string{"dept"}}); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		if err := tab.Insert(empRow(id, 100)); err != nil {
			t.Fatal(err)
		}
	}
	tab.ResetVersions()
	pk := tab.Schema().KeyOf(empRow(2, 0))
	rec := tab.recs[pk]

	if _, err := tab.Delete(pk); err != nil {
		t.Fatal(err)
	}
	if tab.recs[pk] != rec || rec.base != nil || rec.chain == nil {
		t.Fatalf("deleted key: record %+v, want the same record, base-absent and chained", rec)
	}
	if tab.Len() != 2 || tab.Exists(pk) {
		t.Fatalf("Len = %d, Exists = %v with a base-absent record; want 2, false", tab.Len(), tab.Exists(pk))
	}
	dept := []spi.Value{spi.I64(10)}
	for name, scan := range map[string]func(func(spi.Key, spi.Row) bool){
		"Scan":          tab.Scan,
		"IndexScan":     func(v func(spi.Key, spi.Row) bool) { tab.IndexScan("by_dept", dept, v) },
		"IndexRange":    func(v func(spi.Key, spi.Row) bool) { tab.IndexRange("by_dept", dept, nil, v) },
		"IndexScanAsOf": func(v func(spi.Key, spi.Row) bool) { tab.IndexScanAsOf("by_dept", dept, spi.MaxCSN, v) },
	} {
		n := 0
		scan(func(k spi.Key, row spi.Row) bool {
			if k == pk || row == nil {
				t.Errorf("%s visited the base-absent record (%q, %v)", name, k, row)
			}
			n++
			return true
		})
		if n != 2 {
			t.Errorf("%s visited %d rows, want 2", name, n)
		}
	}

	// Reinsert before the chain is collected: the key keeps its record.
	if err := tab.Insert(empRow(2, 200)); err != nil {
		t.Fatal(err)
	}
	if tab.recs[pk] != rec || len(tab.recs) != 3 || tab.Len() != 3 {
		t.Fatalf("reinserted key: %d records, Len %d; want the one record back, 3 and 3", len(tab.recs), tab.Len())
	}
	n := 0
	tab.IndexScan("by_dept", dept, func(_ spi.Key, row spi.Row) bool {
		if row[0].Int64() == 2 && row[3].Int64() != 200 {
			t.Errorf("index leaf for the reinserted key shows %v", row)
		}
		n++
		return true
	})
	if n != 3 {
		t.Fatalf("IndexScan after reinsert visited %d rows, want 3", n)
	}

	// Delete again, publish the tombstone, prune past it: chain and record go.
	old, _ := tab.Delete(pk)
	tab.PublishVersion(pk, old, nil, 5)
	if _, dropped := tab.PruneVersions(5); dropped != 1 {
		t.Fatalf("PruneVersions dropped %d chains, want 1", dropped)
	}
	if _, still := tab.recs[pk]; still || len(tab.recs) != 2 || len(tab.chained) != 0 {
		t.Fatalf("after pruning: %d records (%d chained), key present %v; want 2 (0), false",
			len(tab.recs), len(tab.chained), still)
	}
	// A tombstone published for a key with no record makes one, and
	// ResetVersions removes it again.
	tab.PublishVersion(pk, old, nil, 6)
	if tab.recs[pk] == nil || tab.Len() != 2 {
		t.Fatalf("tombstone on a recordless key: record %v, Len %d", tab.recs[pk], tab.Len())
	}
	tab.ResetVersions()
	if len(tab.recs) != 2 {
		t.Fatalf("ResetVersions left %d records, want 2", len(tab.recs))
	}
}

// TestTableReadsAllocFree is the CI allocation guard for the read path (run
// via -run 'AllocFree'): a point read copies nothing and probes once, and an
// index scan costs the same however many rows it visits — no map probe, no
// copy per row — and allocates only its encoded prefix, no upper bound.
func TestTableReadsAllocFree(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.AddIndex(spi.IndexDef{Name: "by_dept", Columns: []string{"dept"}})
	const many = 300
	for id := int64(1); id <= many; id++ {
		row := empRow(id, 100)
		if id == many {
			row[1] = spi.I64(11) // a department of one
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	tab.ResetVersions()
	pk := tab.Schema().KeyOf(empRow(7, 0))
	tab.Update(pk, empRow(7, 150))
	tab.PublishVersion(pk, empRow(7, 100), empRow(7, 150), 3)

	if n := testing.AllocsPerRun(100, func() { tab.Get(pk) }); n != 0 {
		t.Errorf("Get: %.1f allocs/op, want 0", n)
	}
	for _, asOf := range []spi.CSN{1, 3} { // through the chain, both ends
		if n := testing.AllocsPerRun(100, func() { tab.GetAsOf(pk, asOf) }); n != 0 {
			t.Errorf("GetAsOf(%d): %.1f allocs/op, want 0", asOf, n)
		}
	}
	visited := 0
	visit := func(spi.Key, spi.Row) bool { visited++; return true }
	one, all := []spi.Value{spi.I64(11)}, []spi.Value{spi.I64(10)}
	for name, scan := range map[string]func(eq []spi.Value){
		"IndexScan":     func(eq []spi.Value) { tab.IndexScan("by_dept", eq, visit) },
		"IndexScanAsOf": func(eq []spi.Value) { tab.IndexScanAsOf("by_dept", eq, 3, visit) },
	} {
		visited = 0
		small := testing.AllocsPerRun(20, func() { scan(one) })
		large := testing.AllocsPerRun(20, func() { scan(all) })
		if visited != 21+21*(many-1) {
			t.Fatalf("%s visited %d rows", name, visited)
		}
		if large != small {
			t.Errorf("%s: %.1f allocs over %d rows against %.1f over one: %.2f per visited row, want 0",
				name, large, many-1, small, (large-small)/(many-2))
		}
		if small != 1 {
			t.Errorf("%s: %.1f allocs/op, want 1 (the prefix)", name, small)
		}
	}
}

// TestTableUpdateAllocFree is the CI allocation guard for the write path (run
// via -run 'AllocFree'): once a key has its chain, an Update that leaves every
// indexed column alone allocates nothing — the primary key is checked against
// the stored image's key columns instead of being re-encoded, and no index
// entry key is built. An Update that changes the primary key is still
// refused, by value and by a float key's sign of zero, which encodes
// differently although the two compare equal.
func TestTableUpdateAllocFree(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.AddIndex(spi.IndexDef{Name: "by_dept", Columns: []string{"dept"}})
	for id := int64(1); id <= 3; id++ {
		if err := tab.Insert(empRow(id, 100)); err != nil {
			t.Fatal(err)
		}
	}
	pk := tab.Schema().KeyOf(empRow(2, 0))
	images := []spi.Row{empRow(2, 150), empRow(2, 200)}
	i := 0
	if n := testing.AllocsPerRun(100, func() { tab.Update(pk, images[i%2]); i++ }); n != 0 {
		t.Errorf("Update leaving the indexed columns: %.1f allocs/op, want 0", n)
	}
	if got, _ := tab.Get(pk); got[3].Int64() != images[(i-1)%2][3].Int64() {
		t.Fatalf("Update not applied: %v", got)
	}

	if _, err := tab.Update(pk, empRow(3, 150)); err == nil {
		t.Error("Update to another primary key accepted")
	}
	if got, _ := tab.Get(pk); got[0].Int64() != 2 {
		t.Errorf("refused Update changed the row: %v", got)
	}
	fs := spi.MustSchema("f", []spi.Column{
		{Name: "x", Kind: spi.KindFloat},
		{Name: "v", Kind: spi.KindInt},
	}, "x")
	ft := NewTable(fs)
	if err := ft.Insert(spi.Row{spi.F64(0), spi.I64(1)}); err != nil {
		t.Fatal(err)
	}
	fpk := fs.KeyOf(spi.Row{spi.F64(0), spi.I64(0)})
	if _, err := ft.Update(fpk, spi.Row{spi.F64(math.Copysign(0, -1)), spi.I64(2)}); err == nil {
		t.Error("Update from +0 to -0 in a float primary key accepted")
	}
	if _, err := ft.Update(fpk, spi.Row{spi.F64(0), spi.I64(2)}); err != nil {
		t.Errorf("Update keeping a float primary key refused: %v", err)
	}
}
