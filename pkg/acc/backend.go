// Backend vocabulary: the types a program needs to implement its own
// storage backend (or simply to build rows and schemas). These are aliases
// of the accdb/internal/spi service-provider interface, so a Storage built
// against this package plugs straight into NewDB via WithStorage. The
// behavioural contract is documented on the interfaces and in DESIGN.md §15;
// the conformance suite under internal/spi/spitest is the executable
// version of that contract.
package acc

import (
	"accdb/internal/spi"
)

// Storage is the row-store half of the backend SPI: a named collection of
// tables, safe for concurrent use.
type Storage = spi.Store

// Table is one relation of a Storage. See the interface documentation for
// the full contract (atomicity, pre-image capture, index ordering, and the
// version-chain obligations backing the lock-free read tiers).
type Table = spi.Table

// Schema describes a relation: ordered columns plus a primary key.
type Schema = spi.Schema

// Column is one column of a Schema.
type Column = spi.Column

// Kind enumerates the value kinds of the storage model.
type Kind = spi.Kind

// Value kinds.
const (
	KindInt    = spi.KindInt
	KindFloat  = spi.KindFloat
	KindString = spi.KindString
)

// Value is one dynamically typed cell.
type Value = spi.Value

// Row is an ordered tuple of values matching a Schema.
type Row = spi.Row

// Key is an order-preserving encoding of a value tuple; tables are keyed
// and indexed by it.
type Key = spi.Key

// IndexDef declares a secondary index over named columns.
type IndexDef = spi.IndexDef

// CSN is a commit sequence number; see the documentation on spi.CSN for
// the version-chain semantics behind the read tiers.
type CSN = spi.CSN

// VersionStats summarizes a table's version-chain footprint.
type VersionStats = spi.VersionStats

// Value constructors and key codecs, re-exported for building rows and
// probing tables.
var (
	// I64 builds an integer value.
	I64 = spi.I64
	// Int builds an integer value from an int.
	Int = spi.Int
	// F64 builds a float value.
	F64 = spi.F64
	// Str builds a string value.
	Str = spi.Str
	// EncodeKey encodes a value tuple into an order-preserving Key.
	EncodeKey = spi.EncodeKey
	// DecodeKey inverts EncodeKey.
	DecodeKey = spi.DecodeKey
	// NewSchema validates and builds a Schema.
	NewSchema = spi.NewSchema
	// MustSchema is NewSchema that panics; for static schemas.
	MustSchema = spi.MustSchema
)

// Sentinel errors a Storage implementation must wrap (errors.Is) so the
// engine's error taxonomy works unchanged.
var (
	// ErrNotFound reports a lookup for an absent primary key.
	ErrNotFound = spi.ErrNotFound
	// ErrDuplicate reports an insert whose primary key already exists.
	ErrDuplicate = spi.ErrDuplicate
)
