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
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"accdb/internal/spi"
)

// DB is a database: an SPI row store plus the partition declarations that
// define the middle granule of the lock hierarchy (the stand-in for Ingres
// page locks). Partition columns must be the leading primary-key columns, so
// a row's partition granule is a prefix of its encoded primary key.
type DB struct {
	store spi.Store

	// parts maps each partitioned table to its count of partition columns. It
	// is copied on write: CreateTable publishes a new map under mu, and every
	// lookup on the statement path is one atomic load.
	mu    sync.Mutex
	parts atomic.Pointer[map[string]int]
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

// NewDB creates an empty database over the configured store, or over a
// store from the registered factory (spi.NewStore) when none is given;
// with no factory registered it panics, as the engine cannot run without a
// store.
func NewDB(opts ...DBOption) *DB {
	var c dbConfig
	for _, apply := range opts {
		apply(&c)
	}
	store := c.store
	if store == nil {
		store = spi.NewStore()
	}
	db := &DB{store: store}
	db.parts.Store(&map[string]int{})
	return db
}

// Store returns the underlying SPI row store.
func (db *DB) Store() spi.Store { return db.store }

// Table returns the named table, or nil.
func (db *DB) Table(name string) spi.Table { return db.store.Table(name) }

// CreateTable creates a table. If partitionBy columns are given they define
// the table's partition granule: scans of a partition take a shared
// partition lock and inserts/deletes take an exclusive one, which both
// serializes structural changes the way page locks did in Ingres and closes
// the phantom window for assertions that quantify over a partition. The
// partition columns must be the leading primary-key columns, in key order:
// a row's granule is then the prefix of its encoded primary key, and the
// engine slices it from the key instead of encoding it. An ordered index
// named PartIndex over the partition columns is created automatically.
func (db *DB) CreateTable(schema *spi.Schema, partitionBy ...string) (spi.Table, error) {
	// Validate the partition declaration before touching the store, so a
	// bad declaration does not leave a half-created table behind.
	for i, name := range partitionBy {
		c := schema.Col(name)
		if c < 0 {
			return nil, fmt.Errorf("core: partition column %q not in %s", name, schema.Name)
		}
		if i >= len(schema.PK) || schema.PK[i] != c {
			return nil, fmt.Errorf("core: partition column %q of %s must be primary-key column %d: partition columns are the leading primary-key columns", name, schema.Name, i+1)
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
	parts := maps.Clone(*db.parts.Load())
	parts[schema.Name] = len(partitionBy)
	db.parts.Store(&parts)
	db.mu.Unlock()
	return t, nil
}

// partitionOf returns the partition item of the row under pk, if the table
// is partitioned: the encoding of pk's leading partition columns, sliced
// from pk.
func (db *DB) partitionOf(table string, pk spi.Key) (spi.Item, bool) {
	n := (*db.parts.Load())[table]
	if n == 0 {
		return spi.Item{}, false
	}
	return spi.PartitionItem(table, spi.KeyPrefix(pk, n)), true
}

// MustCreateTable is CreateTable that panics; for static schemas.
func (db *DB) MustCreateTable(schema *spi.Schema, partitionBy ...string) spi.Table {
	t, err := db.CreateTable(schema, partitionBy...)
	if err != nil {
		panic(err)
	}
	return t
}

// checkParts returns the table's partition-column count, or refuses a
// partition list that a partition read or write cannot lock, in order: a
// table without partitions, a partition not named by one value per partition
// column, or partitions not in strictly ascending order. Values are ordered
// as their key encoding orders them — by kind, then by value — so ascending
// values are ascending keys; a pair of values Compare finds equal (a float's
// -0 and +0) is refused as a repeat.
func (db *DB) checkParts(table string, parts [][]spi.Value) (int, error) {
	n := (*db.parts.Load())[table]
	if n == 0 {
		return 0, fmt.Errorf("core: table %q is not partitioned", table)
	}
	for i, p := range parts {
		if len(p) != n {
			return 0, fmt.Errorf("core: partition %d of %s has %d values, want %d", i, table, len(p), n)
		}
		if i > 0 && slices.CompareFunc(parts[i-1], p, compareKeyVals) >= 0 {
			return 0, fmt.Errorf("core: partitions of %s not in strictly ascending order at %d", table, i)
		}
	}
	return n, nil
}

// compareKeyVals orders two values as their key encodings order them: by
// kind, whose tag leads the encoding, then by value.
func compareKeyVals(x, y spi.Value) int {
	if x.K != y.K {
		return cmp.Compare(x.K, y.K)
	}
	return x.Compare(y)
}
