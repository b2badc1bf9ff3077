// Package memstore is a deliberately simple spi.Store: a mutex-guarded
// ordered map per table, secondary "indexes" answered by a full scan and
// sort, and a direct transliteration of the version-chain contract. It
// exists to prove the SPI seam is real — the conformance suite
// (accdb/internal/spi/spitest) and the full TPC-C consistency battery run
// against it unchanged — and to serve as the reference implementation a
// backend author can read in one sitting. It registers itself under the
// backend name "memstore"; select it with ACCDB_BACKEND=memstore or
// core.WithBackend("memstore"). Nothing here is tuned: correctness over
// speed, in as few moving parts as possible.
package memstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"accdb/internal/spi"
)

func init() { spi.Register("memstore", func() spi.Store { return NewStore() }) }

// Store is a named collection of in-memory tables.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tables: make(map[string]*table)} }

// Create adds a table for schema; the name must be new.
func (s *Store) Create(schema *spi.Schema) (spi.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[schema.Name]; ok {
		return nil, fmt.Errorf("memstore: table %q already exists", schema.Name)
	}
	t := &table{schema: schema, rows: make(map[spi.Key]spi.Row)}
	s.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (s *Store) Table(name string) spi.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[name]; ok {
		return t
	}
	return nil
}

// Names returns the table names in unspecified order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	return names
}

type index struct {
	def  spi.IndexDef
	cols []int
}

type version struct {
	csn spi.CSN
	row spi.Row // nil is a tombstone
}

type table struct {
	schema *spi.Schema

	mu       sync.RWMutex
	rows     map[spi.Key]spi.Row
	indexes  []*index
	versions map[spi.Key][]version
}

func (t *table) Schema() *spi.Schema { return t.schema }

func (t *table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

func (t *table) Get(pk spi.Key) (spi.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	return row.Clone(), nil
}

func (t *table) Exists(pk spi.Key) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.rows[pk]
	return ok
}

func (t *table) Insert(row spi.Row) error {
	if err := t.schema.CheckRow(row); err != nil {
		return err
	}
	pk := t.schema.KeyOf(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rows[pk]; ok {
		return fmt.Errorf("%w: %s %v", spi.ErrDuplicate, t.schema.Name, t.schema.PKOf(row))
	}
	t.seedLocked(pk, nil)
	t.rows[pk] = row.Clone()
	return nil
}

func (t *table) Update(pk spi.Key, row spi.Row) (spi.Row, error) {
	if err := t.schema.CheckRow(row); err != nil {
		return nil, err
	}
	if t.schema.KeyOf(row) != pk {
		return nil, fmt.Errorf("memstore: update changes primary key of %s", t.schema.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	t.seedLocked(pk, old)
	t.rows[pk] = row.Clone()
	return old, nil
}

func (t *table) Delete(pk spi.Key) (spi.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	t.seedLocked(pk, old)
	delete(t.rows, pk)
	return old, nil
}

func (t *table) Apply(pk spi.Key, row spi.Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, had := t.rows[pk]
	if row == nil {
		if !had {
			return
		}
		t.seedLocked(pk, old)
		delete(t.rows, pk)
		return
	}
	if had {
		t.seedLocked(pk, old)
	} else {
		t.seedLocked(pk, nil)
	}
	t.rows[pk] = row.Clone()
}

func (t *table) Scan(visit func(pk spi.Key, row spi.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pk, row := range t.rows {
		if !visit(pk, row.Clone()) {
			return
		}
	}
}

func (t *table) AddIndex(def spi.IndexDef) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cols := make([]int, len(def.Columns))
	for i, name := range def.Columns {
		c := t.schema.Col(name)
		if c < 0 {
			return fmt.Errorf("memstore: index %s: no column %q in %s", def.Name, name, t.schema.Name)
		}
		cols[i] = c
	}
	// No structure to maintain: scans recompute entries from the base rows.
	t.indexes = append(t.indexes, &index{def: def, cols: cols})
	return nil
}

func (t *table) index(name string) *index {
	for _, ix := range t.indexes {
		if ix.def.Name == name {
			return ix
		}
	}
	return nil
}

// entryKey builds the same entry key the B+-tree backend stores: encoded
// secondary columns, then the primary key.
func (ix *index) entryKey(row spi.Row, pk spi.Key) spi.Key {
	var b strings.Builder
	for _, c := range ix.cols {
		spi.AppendKeyVal(&b, row[c])
	}
	b.WriteString(string(pk))
	return spi.Key(b.String())
}

// entry pairs an index entry key with its primary key.
type entry struct {
	key spi.Key
	pk  spi.Key
}

// entriesLocked materializes the index by scanning every base row, sorted in
// entry-key order. O(n log n) per probe — the simplicity is the point.
func (t *table) entriesLocked(ix *index) []entry {
	es := make([]entry, 0, len(t.rows))
	for pk, row := range t.rows {
		es = append(es, entry{ix.entryKey(row, pk), pk})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	return es
}

func (t *table) IndexScan(indexName string, eq []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	return t.indexWalk(indexName, spi.EncodeKey(eq...), "", true,
		func(pk spi.Key) (spi.Row, bool) {
			row, ok := t.rows[pk]
			if !ok {
				return nil, false
			}
			return row.Clone(), true
		}, visit)
}

func (t *table) IndexRange(indexName string, lo, hi []spi.Value, visit func(pk spi.Key, row spi.Row) bool) error {
	var hiK spi.Key
	if hi != nil {
		hiK = spi.EncodeKey(hi...)
	}
	return t.indexWalk(indexName, spi.EncodeKey(lo...), hiK, false,
		func(pk spi.Key) (spi.Row, bool) {
			row, ok := t.rows[pk]
			if !ok {
				return nil, false
			}
			return row.Clone(), true
		}, visit)
}

// indexWalk visits index entries from lo — prefix-equal entries when prefix
// is set, else [lo, hi) with empty hi unbounded — resolving each primary key
// through resolve (which reports absent keys to skip).
func (t *table) indexWalk(indexName string, lo, hi spi.Key, prefix bool,
	resolve func(pk spi.Key) (spi.Row, bool), visit func(pk spi.Key, row spi.Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.index(indexName)
	if ix == nil {
		return fmt.Errorf("memstore: %s has no index %q", t.schema.Name, indexName)
	}
	for _, e := range t.entriesLocked(ix) {
		if e.key < lo {
			continue
		}
		if prefix {
			if !strings.HasPrefix(string(e.key), string(lo)) {
				break
			}
		} else if hi != "" && e.key >= hi {
			break
		}
		row, ok := resolve(e.pk)
		if !ok {
			continue
		}
		if !visit(e.pk, row) {
			return nil
		}
	}
	return nil
}

// seedLocked starts pk's chain with its pre-image at CSN 0 (nil when absent)
// if no chain exists yet; see the spi.Table contract.
func (t *table) seedLocked(pk spi.Key, prior spi.Row) {
	if _, ok := t.versions[pk]; ok {
		return
	}
	if t.versions == nil {
		t.versions = make(map[spi.Key][]version)
	}
	if prior != nil {
		prior = prior.Clone()
	}
	t.versions[pk] = []version{{csn: 0, row: prior}}
}

func (t *table) PublishVersion(pk spi.Key, prior, row spi.Row, csn spi.CSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seedLocked(pk, prior)
	if row != nil {
		row = row.Clone()
	}
	t.versions[pk] = append(t.versions[pk], version{csn: csn, row: row})
}

// asOfLocked resolves pk as of asOf: newest chain version ≤ asOf, base-row
// fallback only for keys with no chain.
func (t *table) asOfLocked(pk spi.Key, asOf spi.CSN) (spi.Row, bool) {
	if chain, ok := t.versions[pk]; ok {
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].csn <= asOf {
				if chain[i].row == nil {
					return nil, false
				}
				return chain[i].row.Clone(), true
			}
		}
		return nil, false
	}
	row, ok := t.rows[pk]
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

func (t *table) GetAsOf(pk spi.Key, asOf spi.CSN) (spi.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.asOfLocked(pk, asOf)
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	return row, nil
}

func (t *table) ScanAsOf(asOf spi.CSN, visit func(pk spi.Key, row spi.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pk := range t.rows {
		if _, chained := t.versions[pk]; chained {
			continue // visited through the chain loop below
		}
		if row, ok := t.asOfLocked(pk, asOf); ok && !visit(pk, row) {
			return
		}
	}
	for pk := range t.versions {
		if row, ok := t.asOfLocked(pk, asOf); ok && !visit(pk, row) {
			return
		}
	}
}

func (t *table) IndexScanAsOf(indexName string, eq []spi.Value, asOf spi.CSN, visit func(pk spi.Key, row spi.Row) bool) error {
	// Membership is read-ASAP (the walk is over current base rows), contents
	// are as-of — the same asymmetry as the B+-tree backend.
	return t.indexWalk(indexName, spi.EncodeKey(eq...), "", true,
		func(pk spi.Key) (spi.Row, bool) { return t.asOfLocked(pk, asOf) }, visit)
}

func (t *table) PruneVersions(floor spi.CSN) (pruned, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for pk, chain := range t.versions {
		keep := 0
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].csn <= floor {
				keep = i
				break
			}
		}
		if keep > 0 {
			pruned += keep
			chain = chain[keep:]
			t.versions[pk] = chain
		}
		if len(chain) == 1 && chain[0].csn <= floor {
			base, exists := t.rows[pk]
			v := chain[0].row
			if (v == nil && !exists) || (v != nil && exists && v.Equal(base)) {
				delete(t.versions, pk)
				pruned++
				dropped++
			}
		}
	}
	return pruned, dropped
}

func (t *table) ResetVersions() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.versions = nil
}

func (t *table) VersionStats() spi.VersionStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := spi.VersionStats{Chains: len(t.versions)}
	for _, chain := range t.versions {
		s.Versions += len(chain)
	}
	return s
}

func (t *table) ChainLen(pk spi.Key) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.versions[pk])
}
