package storage

import (
	"errors"
	"testing"

	"accdb/internal/spi"
)

func empRow(id, salary int64) spi.Row {
	return spi.Row{spi.I64(id), spi.I64(10), spi.Str("ann"), spi.I64(salary)}
}

// TestVersionSeedOnMutate: the first mutation of a loaded key seeds its chain
// with the pre-image at CSN 0, so a snapshot opened before the mutation still
// resolves the old value even though the base row has moved on.
func TestVersionSeedOnMutate(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.Insert(empRow(1, 500)); err != nil {
		t.Fatal(err)
	}
	tab.ResetVersions() // simulate engine attach: bulk load is quiescent
	pk := tab.Schema().KeyOf(empRow(1, 500))

	if _, err := tab.Update(pk, empRow(1, 700)); err != nil {
		t.Fatal(err)
	}
	if got := tab.ChainLen(pk); got != 1 {
		t.Fatalf("chain after first update = %d versions, want 1 (the seed)", got)
	}
	// The base row already shows 700, but as-of any CSN the seed says 500:
	// the write is not yet published.
	row, err := tab.GetAsOf(pk, spi.MaxCSN)
	if err != nil || row[3].Int64() != 500 {
		t.Fatalf("GetAsOf before publish = %v, %v; want pre-image 500", row, err)
	}

	tab.PublishVersion(pk, empRow(1, 500), empRow(1, 700), 1)
	for _, tc := range []struct {
		asOf spi.CSN
		want int64
	}{{0, 500}, {1, 700}, {spi.MaxCSN, 700}} {
		row, err := tab.GetAsOf(pk, tc.asOf)
		if err != nil || row[3].Int64() != tc.want {
			t.Fatalf("GetAsOf(%d) = %v, %v; want salary %d", tc.asOf, row, err, tc.want)
		}
	}
}

// TestVersionInsertAndTombstone: a key inserted after load seeds a nil
// pre-image (absent at CSN 0); deleting publishes a tombstone that makes it
// absent again for later snapshots while older ones still see it.
func TestVersionInsertAndTombstone(t *testing.T) {
	tab := NewTable(testSchema(t))
	row := empRow(2, 100)
	pk := tab.Schema().KeyOf(row)
	if err := tab.Insert(row); err != nil {
		t.Fatal(err)
	}
	tab.PublishVersion(pk, nil, row, 1)
	if _, err := tab.GetAsOf(pk, 0); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("key visible before its insert published: %v", err)
	}
	if r, err := tab.GetAsOf(pk, 1); err != nil || r[3].Int64() != 100 {
		t.Fatalf("GetAsOf(1) = %v, %v", r, err)
	}
	if _, err := tab.Delete(pk); err != nil {
		t.Fatal(err)
	}
	tab.PublishVersion(pk, row, nil, 2)
	if r, err := tab.GetAsOf(pk, 1); err != nil || r[3].Int64() != 100 {
		t.Fatalf("snapshot at 1 lost the row after delete published: %v, %v", r, err)
	}
	if _, err := tab.GetAsOf(pk, 2); !errors.Is(err, spi.ErrNotFound) {
		t.Fatalf("tombstone at 2 not honoured: %v", err)
	}
}

// TestVersionScanAsOf: ScanAsOf unions chained and unchained keys at the
// requested CSN — deleted-later rows appear, inserted-later rows don't.
func TestVersionScanAsOf(t *testing.T) {
	tab := NewTable(testSchema(t))
	stable, doomed := empRow(1, 10), empRow(2, 20)
	for _, r := range []spi.Row{stable, doomed} {
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	tab.ResetVersions()
	dpk := tab.Schema().KeyOf(doomed)
	if _, err := tab.Delete(dpk); err != nil {
		t.Fatal(err)
	}
	tab.PublishVersion(dpk, doomed, nil, 5)
	late := empRow(3, 30)
	if err := tab.Insert(late); err != nil {
		t.Fatal(err)
	}
	tab.PublishVersion(tab.Schema().KeyOf(late), nil, late, 6)

	seen := map[int64]int64{}
	tab.ScanAsOf(4, func(_ spi.Key, row spi.Row) bool {
		seen[row[0].Int64()] = row[3].Int64()
		return true
	})
	if len(seen) != 2 || seen[1] != 10 || seen[2] != 20 {
		t.Fatalf("ScanAsOf(4) = %v; want ids 1,2 (2 deleted later, 3 inserted later)", seen)
	}
}

// TestPruneVersions: truncation keeps the newest version ≤ floor; a quiescent
// chain (single surviving version value-equal to the base) drops entirely; a
// chain whose seed differs from the base — an unpublished write in flight —
// must NOT drop.
func TestPruneVersions(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.Insert(empRow(1, 100)); err != nil {
		t.Fatal(err)
	}
	tab.ResetVersions()
	pk := tab.Schema().KeyOf(empRow(1, 100))
	for i, sal := range []int64{200, 300, 400} {
		if _, err := tab.Update(pk, empRow(1, sal)); err != nil {
			t.Fatal(err)
		}
		tab.PublishVersion(pk, empRow(1, 100), empRow(1, sal), spi.CSN(i+1))
	}
	// Chain: seed(0)=100, 1=200, 2=300, 3=400.
	pruned, dropped := tab.PruneVersions(2)
	if pruned != 2 || dropped != 0 {
		t.Fatalf("PruneVersions(2) = %d pruned, %d dropped; want 2, 0", pruned, dropped)
	}
	if r, err := tab.GetAsOf(pk, 2); err != nil || r[3].Int64() != 300 {
		t.Fatalf("as-of 2 after prune = %v, %v; want 300", r, err)
	}
	// Floor past the whole chain: one version (400) survives truncation and
	// equals the base row, so the chain drops.
	pruned, dropped = tab.PruneVersions(10)
	if dropped != 1 {
		t.Fatalf("quiescent chain not dropped: pruned=%d dropped=%d", pruned, dropped)
	}
	if got := tab.ChainLen(pk); got != 0 {
		t.Fatalf("chain survives drop: %d versions", got)
	}
	// Reads fall back to the base row.
	if r, err := tab.GetAsOf(pk, 1); err != nil || r[3].Int64() != 400 {
		t.Fatalf("base fallback after drop = %v, %v", r, err)
	}

	// Unpublished write in flight: mutation seeded the chain but nothing is
	// published. The seed (400) differs from the new base (999), so the drop
	// condition must fail closed and keep the pre-image readable.
	if _, err := tab.Update(pk, empRow(1, 999)); err != nil {
		t.Fatal(err)
	}
	if _, dropped = tab.PruneVersions(10); dropped != 0 {
		t.Fatal("dropped a chain guarding an unpublished base-row overwrite")
	}
	if r, err := tab.GetAsOf(pk, spi.MaxCSN); err != nil || r[3].Int64() != 400 {
		t.Fatalf("pre-image lost under in-flight write: %v, %v", r, err)
	}
}

// TestPublishReseedsAfterDrop: if GC dropped a chain between a mutation and
// its publication, PublishVersion's prior re-seeds CSN 0 so older snapshots
// still find the pre-image.
func TestPublishReseedsAfterDrop(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.Insert(empRow(1, 100)); err != nil {
		t.Fatal(err)
	}
	tab.ResetVersions()
	pk := tab.Schema().KeyOf(empRow(1, 100))
	// Publish with no chain present (as if dropped): prior must seed first.
	tab.PublishVersion(pk, empRow(1, 100), empRow(1, 200), 7)
	if r, err := tab.GetAsOf(pk, 3); err != nil || r[3].Int64() != 100 {
		t.Fatalf("re-seeded pre-image missing: %v, %v", r, err)
	}
	if r, err := tab.GetAsOf(pk, 7); err != nil || r[3].Int64() != 200 {
		t.Fatalf("published version missing: %v, %v", r, err)
	}
}

func TestVersionStatsAndReset(t *testing.T) {
	tab := NewTable(testSchema(t))
	for id := int64(1); id <= 3; id++ {
		if err := tab.Insert(empRow(id, id*10)); err != nil {
			t.Fatal(err)
		}
		tab.PublishVersion(tab.Schema().KeyOf(empRow(id, 0)), nil, empRow(id, id*10), spi.CSN(id))
	}
	s := tab.VersionStats()
	if s.Chains != 3 || s.Versions != 6 { // seed + published per key
		t.Fatalf("VersionStats = %+v; want 3 chains, 6 versions", s)
	}
	tab.ResetVersions()
	if s := tab.VersionStats(); s.Chains != 0 || s.Versions != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}
