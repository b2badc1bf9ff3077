// Package storage implements the default row-store backend of the SPI
// (accdb/internal/spi): heap tables holding one record per primary key —
// the key, its current row image and its version chain for the lock-free
// read tiers — behind a hash primary index, with B+-tree secondary indexes
// whose leaves point at the record they name. It installs itself as the
// spi store factory (spi.RegisterStore).
//
// Row images are immutable values (the spi.Table contract): a write installs
// a new image and chains the old one, nothing is modified in place, so the
// table, its chains, its readers and the engine's undo and log records all
// share one image and no operation here copies a row.
//
// The package plays the role that CA-Open Ingres's storage layer played in
// the paper: it stores tuples and hands out stable item identities that the
// lock service and the schedulers lock. The storage layer itself provides
// only physical consistency (latches); all logical concurrency control
// happens above it, through the SPI.
package storage

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"accdb/internal/spi"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// record is everything a table holds for one primary key. base is the
// current row image, nil while the key is absent from the base (deleted, or
// not inserted yet) but still chained; chain is the key's version chain
// (version.go), nil when it has none. A record stays in the table exactly as
// long as it has a base image or a chain, and a key has one record for all
// that time: a deleted-then-reinserted key reuses it, and every index leaf
// for the key points at it.
type record struct {
	pk    spi.Key
	base  spi.Row
	chain []version
}

// Table is a heap relation with a hash primary index and optional B+-tree
// secondary indexes. It implements spi.Table.
//
// A Table provides physical consistency only: the embedded RWMutex is a
// latch held for the duration of a single operation. Logical isolation
// (two-phase and assertional locking) is layered above by package core, the
// way Ingres layers its lock manager above the page store.
type Table struct {
	schema *spi.Schema

	mu      sync.RWMutex
	recs    map[spi.Key]*record
	live    int // records with a base image: Len
	indexes []*secondaryIndex
	// chained is the set of records carrying a chain, so pruning, resetting
	// and counting chains walk the keys written lately, not the table.
	chained map[*record]struct{}
}

type secondaryIndex struct {
	def  spi.IndexDef
	cols []int
	tree *BTree[*record]
}

// NewTable creates an empty table for the schema.
func NewTable(schema *spi.Schema) *Table {
	return &Table{schema: schema, recs: make(map[spi.Key]*record)}
}

// Schema describes the relation; immutable after construction.
func (t *Table) Schema() *spi.Schema { return t.schema }

// AddIndex creates a secondary index and backfills it from existing rows.
func (t *Table) AddIndex(def spi.IndexDef) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cols := make([]int, len(def.Columns))
	for i, name := range def.Columns {
		c := t.schema.Col(name)
		if c < 0 {
			return fmt.Errorf("storage: index %s: no column %q in %s", def.Name, name, t.schema.Name)
		}
		cols[i] = c
	}
	idx := &secondaryIndex{def: def, cols: cols, tree: NewBTree[*record]()}
	for pk, rec := range t.recs {
		if rec.base != nil {
			idx.tree.Set(idx.entryKey(rec.base, pk), rec)
		}
	}
	t.indexes = append(t.indexes, idx)
	return nil
}

// entryKey builds the index entry key: secondary values then the primary
// key, encoded in one pass so index maintenance costs one allocation.
func (ix *secondaryIndex) entryKey(row spi.Row, pk spi.Key) spi.Key {
	var b strings.Builder
	n := len(pk)
	for _, c := range ix.cols {
		n += spi.KeyLen(row[c])
	}
	b.Grow(n)
	for _, c := range ix.cols {
		spi.AppendKeyVal(&b, row[c])
	}
	b.WriteString(string(pk))
	return spi.Key(b.String())
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

func (t *Table) notFound() error {
	return fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
}

// present returns pk's record if the key has a base image, else nil.
func (t *Table) present(pk spi.Key) *record {
	if rec := t.recs[pk]; rec != nil && rec.base != nil {
		return rec
	}
	return nil
}

// Get returns the row with the given primary key: the stored image, shared.
func (t *Table) Get(pk spi.Key) (spi.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if rec := t.present(pk); rec != nil {
		return rec.base, nil
	}
	return nil, t.notFound()
}

// Exists reports whether a primary key is present.
func (t *Table) Exists(pk spi.Key) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.present(pk) != nil
}

// recordLocked returns pk's record, creating an empty one if the key has
// none. Callers hold t.mu exclusively and give the record a base image or a
// chain before they release it.
func (t *Table) recordLocked(pk spi.Key) *record {
	rec := t.recs[pk]
	if rec == nil {
		rec = &record{pk: pk}
		t.recs[pk] = rec
	}
	return rec
}

// installLocked makes row rec's base image (nil: the key leaves the base) and
// returns the image it replaced. It is the one place a base image changes:
// the replaced image seeds the chain first, and each index entry moves only
// if its key changed — an index whose columns an update left alone is
// skipped before any entry key is built. Callers hold t.mu exclusively.
func (t *Table) installLocked(rec *record, row spi.Row) spi.Row {
	old := rec.base
	t.seedVersionLocked(rec, old)
	rec.base = row
	switch {
	case old == nil && row != nil:
		t.live++
	case old != nil && row == nil:
		t.live--
	}
	for _, ix := range t.indexes {
		if old != nil && row != nil && sameCols(old, row, ix.cols) {
			continue
		}
		var oldEntry, newEntry spi.Key // "" is no entry: an entry key ends in pk
		if old != nil {
			oldEntry = ix.entryKey(old, rec.pk)
		}
		if row != nil {
			newEntry = ix.entryKey(row, rec.pk)
		}
		if oldEntry == newEntry {
			continue
		}
		if old != nil {
			ix.tree.Delete(oldEntry)
		}
		if row != nil {
			ix.tree.Set(newEntry, rec)
		}
	}
	return old
}

// sameCols reports whether two images of a row agree on the given columns
// exactly as their key encodings would: floats bit for bit, so -0 and +0
// differ and a NaN equals itself.
func sameCols(a, b spi.Row, cols []int) bool {
	for _, c := range cols {
		x, y := a[c], b[c]
		if x.K == spi.KindFloat && y.K == spi.KindFloat {
			if math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		} else if !x.Equal(y) {
			return false
		}
	}
	return true
}

// Insert adds a new row, which the table keeps; the primary key must not
// exist. The primary map is probed once.
func (t *Table) Insert(row spi.Row) error {
	if err := t.schema.CheckRow(row); err != nil {
		return err
	}
	pk := t.schema.KeyOf(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.recordLocked(pk)
	if rec.base != nil {
		return fmt.Errorf("%w: %s %v", spi.ErrDuplicate, t.schema.Name, t.schema.PKOf(row))
	}
	t.installLocked(rec, row)
	return nil
}

// Update replaces the row stored under pk by row, which the table keeps. The
// new row must have the same primary key, which is checked against the stored
// image's key columns. It returns the previous image for undo logging.
func (t *Table) Update(pk spi.Key, row spi.Row) (spi.Row, error) {
	if err := t.schema.CheckRow(row); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.present(pk)
	if rec == nil {
		return nil, t.notFound()
	}
	if !sameCols(rec.base, row, t.schema.PK) {
		return nil, fmt.Errorf("storage: update changes primary key of %s", t.schema.Name)
	}
	return t.installLocked(rec, row), nil
}

// Delete removes the row under pk, returning the removed image for undo.
func (t *Table) Delete(pk spi.Key) (spi.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.present(pk)
	if rec == nil {
		return nil, t.notFound()
	}
	return t.installLocked(rec, nil), nil
}

// Apply installs a row image directly (used by WAL recovery and step undo):
// a nil row deletes pk, otherwise the row is upserted and the table keeps it.
// No index entry is required to pre-exist.
func (t *Table) Apply(pk spi.Key, row spi.Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if row == nil && t.present(pk) == nil {
		return
	}
	t.installLocked(t.recordLocked(pk), row)
}

// Scan visits every row in unspecified order; the visitor returns false to
// stop. The latch is held in read mode for the whole scan.
func (t *Table) Scan(visit func(pk spi.Key, row spi.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pk, rec := range t.recs {
		if rec.base != nil && !visit(pk, rec.base) {
			return
		}
	}
}

// walk hands visit, under the read latch and in index order, the record that
// each entry of the named index in [lo, hi) points at (empty hi: unbounded).
// A leaf names a record with a base image — the entry goes when the image
// does, under the same latch — so a scan costs no probe and no copy per row.
func (t *Table) walk(indexName string, lo, hi spi.Key, visit func(spi.Key, *record) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.index(indexName)
	if ix == nil {
		return fmt.Errorf("storage: %s has no index %q", t.schema.Name, indexName)
	}
	ix.tree.Ascend(lo, hi, visit)
	return nil
}

// IndexScan visits rows whose indexed columns equal eq, in index order.
func (t *Table) IndexScan(indexName string, eq []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	return t.walkPrefix(indexName, spi.EncodeKey(eq...), func(rec *record) bool {
		return visit(rec.pk, rec.base)
	})
}

// walkPrefix is walk over the entries whose key starts with prefix: it starts
// at prefix and stops at the first entry that does not start with it, so it
// needs no upper bound.
func (t *Table) walkPrefix(indexName string, prefix spi.Key, visit func(*record) bool) error {
	return t.walk(indexName, prefix, "", func(k spi.Key, rec *record) bool {
		return strings.HasPrefix(string(k), string(prefix)) && visit(rec)
	})
}

// IndexRange visits rows whose index entries fall in [lo, hi) where lo and
// hi are value tuples over the index columns (hi may be nil for unbounded).
func (t *Table) IndexRange(indexName string, lo, hi []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	var hiK spi.Key
	if hi != nil {
		hiK = spi.EncodeKey(hi...)
	}
	return t.walk(indexName, spi.EncodeKey(lo...), hiK, func(_ spi.Key, rec *record) bool {
		return visit(rec.pk, rec.base)
	})
}

func (t *Table) index(name string) *secondaryIndex {
	for _, ix := range t.indexes {
		if ix.def.Name == name {
			return ix
		}
	}
	return nil
}

// Store is the default backend's spi.Store: the set of tables comprising a
// database. The name map is copied on write: Create publishes a new map under
// mu, and a lookup — every statement makes one — is an atomic load.
type Store struct {
	mu     sync.Mutex
	tables atomic.Pointer[map[string]*Table]
}

// NewStore returns an empty B+-tree-backed store.
func NewStore() *Store {
	s := &Store{}
	s.tables.Store(&map[string]*Table{})
	return s
}

// Create adds a table for schema; the name must be new.
func (s *Store) Create(schema *spi.Schema) (spi.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := (*s.tables.Load())[schema.Name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", schema.Name)
	}
	t := NewTable(schema)
	tables := maps.Clone(*s.tables.Load())
	tables[schema.Name] = t
	s.tables.Store(&tables)
	return t, nil
}

// Table returns the named table, or an untyped nil interface when absent (the
// SPI contract).
func (s *Store) Table(name string) spi.Table {
	if t := (*s.tables.Load())[name]; t != nil {
		return t
	}
	return nil
}

// Names returns the table names in unspecified order.
func (s *Store) Names() []string {
	tables := *s.tables.Load()
	out := make([]string, 0, len(tables))
	for n := range tables {
		out = append(out, n)
	}
	return out
}

func init() {
	spi.RegisterStore(func() spi.Store { return NewStore() })
}
