package storage

import (
	"errors"
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
	// Returned row is a copy.
	got[3] = spi.I64(0)
	again, _ := tab.Get(pk)
	if again[3].Int64() != 500 {
		t.Fatal("Get aliases stored row")
	}
	// Update.
	upd := row.Clone()
	upd[3] = spi.I64(700)
	old, err := tab.Update(pk, upd)
	if err != nil || old[3].Int64() != 500 {
		t.Fatalf("Update old = %v, %v", old, err)
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
	c := NewCatalog()
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
