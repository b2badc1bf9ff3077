package spi

import (
	"errors"
	"math"
)

// Sentinel errors returned by table operations. Adapters must wrap these
// (errors.Is-compatible) so the scheduler's error taxonomy works unchanged.
var (
	// ErrNotFound reports a lookup for an absent primary key.
	ErrNotFound = errors.New("storage: row not found")
	// ErrDuplicate reports an insert whose primary key already exists.
	ErrDuplicate = errors.New("storage: duplicate primary key")
	// ErrFixed reports a write the schema's fixed columns forbid: an update
	// that changes a fixed column, or an insert or delete through the engine
	// on a table whose row set is fixed (Column.Fixed).
	ErrFixed = errors.New("storage: write to a fixed column or row set")
)

// CSN is a commit sequence number: the engine stamps one on every batch of
// row versions it publishes at an exposure point (end-of-step force, commit
// force, compensation-done force). CSNs are totally ordered and dense enough
// that "the database as of CSN c" is well defined: a reader holding c sees,
// for every key, the newest version stamped ≤ c.
//
// CSN 0 is reserved for pre-images: when a key is first mutated after load
// (or after its chain was garbage-collected), the mutation seeds the chain
// with the key's prior committed value at CSN 0, so the value predates — and
// is visible to — every possible snapshot.
type CSN uint64

// MaxCSN is the newest-version bound: a reader using it sees the newest published
// version of each key with no cross-key consistency claim.
const MaxCSN = CSN(math.MaxUint64)

// VersionStats summarizes a table's version-chain footprint.
type VersionStats struct {
	// Chains is the number of keys carrying a version chain.
	Chains int
	// Versions is the total number of chain entries across all keys.
	Versions int
}

// Table is one relation of a Store. The contract, which spitest exercises:
//
//   - Operations are individually atomic (an internal latch per call);
//     logical isolation is layered above by the scheduler.
//   - Rows are immutable values, shared not copied. A Row passed to Insert,
//     Update, Apply or PublishVersion belongs to the store from then on: the
//     caller must not change it afterwards. A Row returned by Get, GetAsOf,
//     Update or Delete, or handed to a scan visitor, is shared: it stays
//     valid and unchanged for as long as the caller keeps it — no later
//     operation on its key alters it — and the caller must never change it.
//     Whoever wants a different row builds a new one (Row.Clone, then
//     modify). A backend that copies on the way in or out satisfies this.
//   - Insert rejects an existing primary key with ErrDuplicate; Get, Update
//     and Delete report an absent key with ErrNotFound (wrapped). Update
//     must reject a row whose primary key differs from pk, and one that
//     changes a fixed column with ErrFixed (wrapped); both compare as the
//     key encoding does, floats bit for bit. Update and
//     Delete return the previous image — the scheduler's undo logging and
//     version publication depend on exact pre-image capture.
//   - Apply installs a row image directly (WAL redo): nil deletes, non-nil
//     upserts, index entries need not pre-exist.
//   - Secondary indexes order entries by encoded secondary columns then
//     primary key (EncodeKey semantics); IndexScan visits equal-prefix rows
//     and IndexRange visits [lo, hi) with nil hi unbounded.
//   - Version-chain obligations: every mutation seeds an absent chain with
//     the key's prior committed value at CSN 0 before applying itself;
//     PublishVersion appends an image (nil = tombstone) under a
//     non-decreasing stamp, re-seeding via prior if GC dropped the chain;
//     GetAsOf/ScanAsOf resolve the newest version ≤ asOf, falling back to
//     the base row only for keys with no chain; IndexScanAsOf membership is
//     read-ASAP while contents are as-of; PruneVersions truncates chains to
//     the newest version ≤ floor and may drop a single-entry chain only
//     when it is value-identical to the base row; ResetVersions drops all
//     chains (valid only when all rows are committed and quiescent).
type Table interface {
	// Schema describes the relation; immutable.
	Schema() *Schema
	// Len returns the number of rows.
	Len() int
	// Get returns the row with the given primary key.
	Get(pk Key) (Row, error)
	// Exists reports whether a primary key is present.
	Exists(pk Key) bool
	// Insert adds a new row; the primary key must not exist.
	Insert(row Row) error
	// Update replaces the row stored under pk, returning the previous image.
	Update(pk Key, row Row) (Row, error)
	// Delete removes the row under pk, returning the removed image.
	Delete(pk Key) (Row, error)
	// Apply installs a row image directly (nil row deletes; used by redo).
	Apply(pk Key, row Row)
	// Scan visits every row in unspecified order; the visitor returns
	// false to stop.
	Scan(visit func(pk Key, row Row) bool)
	// AddIndex creates a secondary index and backfills it.
	AddIndex(def IndexDef) error
	// IndexScan visits rows whose indexed columns equal eq, in index order.
	IndexScan(indexName string, eq []Value, visit func(pk Key, row Row) bool) error
	// IndexRange visits rows whose index entries fall in [lo, hi); nil hi
	// is unbounded.
	IndexRange(indexName string, lo, hi []Value, visit func(pk Key, row Row) bool) error

	// GetAsOf returns pk's value as of asOf (see the interface comment).
	GetAsOf(pk Key, asOf CSN) (Row, error)
	// ScanAsOf visits every key that exists as of asOf with its as-of value.
	ScanAsOf(asOf CSN, visit func(pk Key, row Row) bool)
	// IndexScanAsOf is IndexScan with as-of contents (membership read-ASAP).
	IndexScanAsOf(indexName string, eq []Value, asOf CSN, visit func(pk Key, row Row) bool) error
	// PublishVersion appends a committed image to pk's chain under csn.
	PublishVersion(pk Key, prior, row Row, csn CSN)
	// PruneVersions garbage-collects chains against the snapshot floor,
	// returning versions pruned and chains dropped.
	PruneVersions(floor CSN) (pruned, dropped int)
	// ResetVersions drops every chain (engine attach / end of recovery).
	ResetVersions()
	// VersionStats reports the current version-chain footprint.
	VersionStats() VersionStats
	// ChainLen reports the number of versions chained under pk (tests).
	ChainLen(pk Key) int
}

// Store is a named collection of tables — the row-store half of the SPI.
// Implementations must be safe for concurrent use.
type Store interface {
	// Create adds a table for schema; the name must be new.
	Create(schema *Schema) (Table, error)
	// Table returns the named table, or nil (an untyped nil interface, not
	// a typed-nil pointer) when absent. Every call for one table returns the
	// same comparable handle: the engine tells a step's writes apart by
	// handle and key.
	Table(name string) Table
	// Names returns the table names in unspecified order.
	Names() []string
}
