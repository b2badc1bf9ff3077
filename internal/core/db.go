// Package core implements the paper's primary contribution: the one-level
// assertional concurrency control (ACC), together with the baseline
// strict-2PL scheduler (the "unmodified system" of §5) and a conservative
// two-level dispatcher (§3.2's earlier design) used for ablation.
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
// implementations are selected through the SPI registry (see NewDB's
// WithBackend/WithStore options), and this package imports neither
// accdb/internal/storage nor accdb/internal/lock. CI enforces that import
// boundary (tools/doccheck -boundary).
package core

import (
	"fmt"
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
	cols  []int // ordinals into the schema
	pkPos []int // position of each partition column within the PK value list
}

// PartIndex is the name of the automatically created ordered index over a
// table's partition columns; ScanPartition uses it.
const PartIndex = "__part"

// DBOption configures NewDB.
type DBOption func(*dbConfig)

type dbConfig struct {
	backend string
	store   spi.Store
}

// WithBackend selects a registered SPI backend by name (see spi.Backends).
// The default is spi.DefaultBackend(): the ACCDB_BACKEND environment
// variable, or the B+-tree heap when unset.
func WithBackend(name string) DBOption {
	return func(c *dbConfig) { c.backend = name }
}

// WithStore supplies a concrete spi.Store instance, bypassing the registry;
// use it to embed the engine over a custom backend without registering it.
func WithStore(s spi.Store) DBOption {
	return func(c *dbConfig) { c.store = s }
}

// NewDB creates an empty database over the configured backend. An unknown
// backend name panics: the engine cannot run without a store, so this is a
// wiring bug (or an ACCDB_BACKEND typo) best surfaced at startup.
func NewDB(opts ...DBOption) *DB {
	var c dbConfig
	for _, apply := range opts {
		apply(&c)
	}
	store := c.store
	if store == nil {
		name := c.backend
		if name == "" {
			name = spi.DefaultBackend()
		}
		var err error
		store, err = spi.OpenStore(name)
		if err != nil {
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
	cols := make([]int, len(partitionBy))
	pkPos := make([]int, len(partitionBy))
	for i, name := range partitionBy {
		c := schema.Col(name)
		if c < 0 {
			return nil, fmt.Errorf("core: partition column %q not in %s", name, schema.Name)
		}
		if !pkSet[c] {
			return nil, fmt.Errorf("core: partition column %q of %s must be part of the primary key", name, schema.Name)
		}
		cols[i] = c
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
	db.parts[schema.Name] = &partition{cols: cols, pkPos: pkPos}
	db.mu.Unlock()
	return t, nil
}

// partitionOfKey returns the partition item implied by a full primary-key
// value list, if the table is partitioned.
func (db *DB) partitionOfKey(table string, keyVals []spi.Value) (spi.Item, bool) {
	db.mu.RLock()
	p := db.parts[table]
	db.mu.RUnlock()
	if p == nil {
		return spi.Item{}, false
	}
	vals := make([]spi.Value, len(p.pkPos))
	for i, pos := range p.pkPos {
		vals[i] = keyVals[pos]
	}
	return spi.PartitionItem(table, spi.EncodeKey(vals...)), true
}

// MustCreateTable is CreateTable that panics; for static schemas.
func (db *DB) MustCreateTable(schema *spi.Schema, partitionBy ...string) spi.Table {
	t, err := db.CreateTable(schema, partitionBy...)
	if err != nil {
		panic(err)
	}
	return t
}

// partitionOfRow returns the partition item of a row, if the table is
// partitioned.
func (db *DB) partitionOfRow(table string, schema *spi.Schema, row spi.Row) (spi.Item, bool) {
	db.mu.RLock()
	p := db.parts[table]
	db.mu.RUnlock()
	if p == nil {
		return spi.Item{}, false
	}
	vals := make([]spi.Value, len(p.cols))
	for i, c := range p.cols {
		vals[i] = row[c]
	}
	return spi.PartitionItem(table, spi.EncodeKey(vals...)), true
}

// partitionItem returns the partition item for explicit partition values.
func (db *DB) partitionItem(table string, vals []spi.Value) spi.Item {
	return spi.PartitionItem(table, spi.EncodeKey(vals...))
}

// partitioned reports whether the table has a partition granule.
func (db *DB) partitioned(table string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.parts[table] != nil
}
