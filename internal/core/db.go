// Package core implements the paper's primary contribution: the one-level
// assertional concurrency control (ACC), together with the baseline
// strict-2PL scheduler (the "unmodified system" of §5) it is measured
// against.
//
// The engine executes transactions that were decomposed at design time into
// steps (§3.1). Within a step it uses strict two-phase locking on a
// table/partition/row hierarchy, so every step is atomic and isolated;
// between steps conventional locks are released and only assertional locks,
// exposure marks and compensation reservations remain. Interference is
// never evaluated at run time — it is looked up in the design-time tables of
// package interference, exactly as the paper prescribes.
//
// The scheduler reaches its backends — the row store and the lock service —
// only through the interfaces of accdb/internal/spi; the concrete
// implementations come from the SPI registry or from NewDB's WithStore
// option, and this package imports neither accdb/internal/storage nor
// accdb/internal/lock. CI enforces that import boundary (tools/doccheck
// -boundary).
package core

import (
	"fmt"
	"strings"
	"sync"

	"accdb/internal/spi"
)

// DB is a database: an SPI row store plus the partition declarations that
// define the middle granule of the lock hierarchy (the stand-in for Ingres
// page locks). Partition columns must be a subset of the primary key so that
// both point accesses and inserts can derive the partition of a row.
type DB struct {
	store spi.Store

	mu    sync.RWMutex
	parts map[string]*partition
}

type partition struct {
	pkPos []int // position of each partition column within the PK value list
}

// PartIndex is the name of the automatically created ordered index over a
// table's partition columns; ScanPartition uses it.
const PartIndex = "__part"

// DBOption configures NewDB.
type DBOption func(*dbConfig)

type dbConfig struct {
	store spi.Store
}

// WithStore supplies the spi.Store the database runs over; use it to embed
// the engine over a custom backend without registering it.
func WithStore(s spi.Store) DBOption {
	return func(c *dbConfig) { c.store = s }
}

// NewDB creates an empty database over the configured store, or over the
// registry's spi.DefaultBackend() when none is given. An unregistered
// default panics: the engine cannot run without a store, so this is a wiring
// bug best surfaced at startup. A caller that can refuse a bad
// configuration instead opens the store itself and passes WithStore.
func NewDB(opts ...DBOption) *DB {
	var c dbConfig
	for _, apply := range opts {
		apply(&c)
	}
	store := c.store
	if store == nil {
		var err error
		if store, err = spi.OpenStore(spi.DefaultBackend()); err != nil {
			panic(err)
		}
	}
	return &DB{store: store, parts: make(map[string]*partition)}
}

// Store returns the underlying SPI row store.
func (db *DB) Store() spi.Store { return db.store }

// Table returns the named table, or nil.
func (db *DB) Table(name string) spi.Table { return db.store.Table(name) }

// CreateTable creates a table. If partitionBy columns are given they define
// the table's partition granule: scans of a partition take a shared
// partition lock and inserts/deletes take an exclusive one, which both
// serializes structural changes the way page locks did in Ingres and closes
// the phantom window for assertions that quantify over a partition. An
// ordered index named PartIndex over the partition columns is created
// automatically.
func (db *DB) CreateTable(schema *spi.Schema, partitionBy ...string) (spi.Table, error) {
	// Validate the partition declaration before touching the store, so a
	// bad declaration does not leave a half-created table behind.
	pkSet := make(map[int]bool, len(schema.PK))
	for _, c := range schema.PK {
		pkSet[c] = true
	}
	pkPos := make([]int, len(partitionBy))
	for i, name := range partitionBy {
		c := schema.Col(name)
		if c < 0 {
			return nil, fmt.Errorf("core: partition column %q not in %s", name, schema.Name)
		}
		if !pkSet[c] {
			return nil, fmt.Errorf("core: partition column %q of %s must be part of the primary key", name, schema.Name)
		}
		for j, pc := range schema.PK {
			if pc == c {
				pkPos[i] = j
			}
		}
	}
	t, err := db.store.Create(schema)
	if err != nil {
		return nil, err
	}
	if len(partitionBy) == 0 {
		return t, nil
	}
	if err := t.AddIndex(spi.IndexDef{Name: PartIndex, Columns: partitionBy}); err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.parts[schema.Name] = &partition{pkPos: pkPos}
	db.mu.Unlock()
	return t, nil
}

// partitionOfKey returns the partition item implied by a full primary-key
// value list, if the table is partitioned. The partition tuple is encoded
// straight from keyVals: one allocation.
func (db *DB) partitionOfKey(table string, keyVals []spi.Value) (spi.Item, bool) {
	p := db.partition(table)
	if p == nil {
		return spi.Item{}, false
	}
	n := 0
	for _, pos := range p.pkPos {
		n += spi.KeyLen(keyVals[pos])
	}
	var b strings.Builder
	b.Grow(n)
	for _, pos := range p.pkPos {
		spi.AppendKeyVal(&b, keyVals[pos])
	}
	return spi.PartitionItem(table, spi.Key(b.String())), true
}

// partitionOfPK is partitionOfKey for an encoded primary key; it decodes the
// key only when the table is partitioned.
func (db *DB) partitionOfPK(table string, pk spi.Key) (spi.Item, bool, error) {
	if !db.partitioned(table) {
		return spi.Item{}, false, nil
	}
	keyVals, err := spi.DecodeKey(pk)
	if err != nil {
		return spi.Item{}, false, err
	}
	part, ok := db.partitionOfKey(table, keyVals)
	return part, ok, nil
}

// MustCreateTable is CreateTable that panics; for static schemas.
func (db *DB) MustCreateTable(schema *spi.Schema, partitionBy ...string) spi.Table {
	t, err := db.CreateTable(schema, partitionBy...)
	if err != nil {
		panic(err)
	}
	return t
}

// partitionItem returns the partition item for explicit partition values.
func (db *DB) partitionItem(table string, vals []spi.Value) spi.Item {
	return spi.PartitionItem(table, spi.EncodeKey(vals...))
}

// partition returns the table's partition declaration, nil if it has none.
func (db *DB) partition(table string) *partition {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.parts[table]
}

// partitioned reports whether the table has a partition granule.
func (db *DB) partitioned(table string) bool { return db.partition(table) != nil }
