// Package acc is the stable public facade over the assertional concurrency
// control engine. Application code — and everything outside internal/ —
// should program against this package rather than internal/core: the aliases
// here are the supported surface, so the engine's internals can move without
// breaking callers.
//
// A minimal in-process program looks like:
//
//	db := acc.NewDB()
//	// create tables, build interference tables ...
//	eng := acc.New(db, tables, acc.WithMode(acc.ModeACC))
//	eng.MustRegister(myTxnType)
//	err := eng.Exec(ctx, acc.Request{Name: "new-order", Args: &args})
//
// Exec is the one way a transaction runs — on an Engine, on a Cluster
// (NewCluster: n ≥ 1 engines behind a router; an Engine is the cluster of
// one) and, through the same Request, in the accd server. Request.Tier
// selects a lock-free read tier for read-only types; Engine.Run and
// Cluster.Run are Exec under context.Background() for callers with nothing
// to cancel.
//
// Every setting is an option passed to a constructor; nothing is read from
// the process environment. A Cluster has the WithPartitions count, 1 without
// it.
//
// Exec propagates ctx into every lock wait: cancelling the context
// aborts the wait, rolls the transaction back (compensating completed steps
// per §3.4 of the paper), and returns an error wrapping ctx.Err().
// Compensation itself always runs to completion under a background context —
// a cancelled client never leaves exposure marks or reservations behind.
//
// Failures classify with errors.Is against the exported sentinels
// (ErrAborted, ErrDeadlockVictim, ErrLockTimeout, ErrUnknownTxnType,
// ErrEngineClosed); Retryable folds the taxonomy into the one question retry
// loops ask. The accd network server and the accclient pool speak the same
// taxonomy over the wire.
package acc

import (
	// Importing the facade links in the backends (the B+-tree heap store and
	// the sharded lock manager), so the zero-config NewDB() path works out of
	// the box.
	_ "accdb/internal/backends"
	"accdb/internal/core"
)

// Engine schedules registered transaction types over a DB. It is an alias of
// the internal engine, so values interoperate with internal packages.
type Engine = core.Engine

// DB is the partitioned in-memory database the engine schedules over.
type DB = core.DB

// DBOption configures NewDB. See WithStorage.
type DBOption = core.DBOption

// NewDB creates an empty database. With no options it runs over the
// built-in B+-tree heap store.
func NewDB(opts ...DBOption) *DB { return core.NewDB(opts...) }

// WithStorage supplies a caller-constructed Storage implementation — the
// "bring your own backend" path. The Storage, Table, and value types
// re-exported in backend.go are the complete vocabulary a backend has to
// implement.
func WithStorage(s Storage) DBOption { return core.WithStore(s) }

// New creates an engine over db using the design-time interference tables,
// configured by functional options. See the With* options.
var New = core.New

// Option configures an Engine at construction.
type Option = core.Option

// Options is the configuration record the With* options fill in; New
// applies them in order, so later options win.
type Options = core.Options

// Mode selects the scheduler.
type Mode = core.Mode

// Scheduler modes (see the Mode constants in the engine).
const (
	// ModeACC is the one-level assertional scheduler of §3.2-3.3.
	ModeACC = core.ModeACC
	// ModeBaseline treats the whole transaction as one strict-2PL unit.
	ModeBaseline = core.ModeBaseline
)

// Functional options re-exported from the engine.
var (
	// WithMode selects the scheduler mode.
	WithMode = core.WithMode
	// WithWaitTimeout bounds individual lock waits.
	WithWaitTimeout = core.WithWaitTimeout
	// WithForceLatency sets the simulated log-force I/O time of the memory
	// log an engine builds when WithWAL supplies none.
	WithForceLatency = core.WithForceLatency
	// WithMaxStepRetries bounds deadlock-victim step restarts.
	WithMaxStepRetries = core.WithMaxStepRetries
	// WithMaxTxnRetries bounds whole-transaction restarts.
	WithMaxTxnRetries = core.WithMaxTxnRetries
	// WithEnv injects execution costs.
	WithEnv = core.WithEnv
	// WithRecordHistory captures a conflict-checkable access history.
	WithRecordHistory = core.WithRecordHistory
	// WithTracer attaches the structured event bus.
	WithTracer = core.WithTracer
	// WithWAL backs the engine with an existing write-ahead log.
	WithWAL = core.WithWAL
	// WithVersionGCInterval sets the version-chain reaper cadence (zero:
	// 100ms default; negative: disabled).
	WithVersionGCInterval = core.WithVersionGCInterval
)

// Request is one transaction to execute: a type (by name, or resolved), its
// argument record, a read tier (zero: the full locked protocol) and an
// optional latency-anatomy span. Engine.Exec and Cluster.Exec take it.
type Request = core.Request

// ReadTier selects the consistency level of a read-only transaction, set in
// Request.Tier or passed to a client's RunTier (see CONSISTENCY.md for the
// tier-by-tier guarantees).
type ReadTier = core.ReadTier

// Consistency tiers, weakest coupling to the lock manager first. Only
// TierLocked permits writes; the other tiers read the engine's version
// chains and acquire no locks at all.
const (
	// TierLocked is the default fully locked protocol.
	TierLocked = core.TierLocked
	// TierASAP reads each row's latest exposed version, no cross-row
	// consistency claim.
	TierASAP = core.TierASAP
	// TierReadCommitted gives each statement a consistent exposure-point
	// prefix; statements may see different prefixes.
	TierReadCommitted = core.TierReadCommitted
	// TierSnapshot fixes one commit sequence number for the whole
	// transaction: a stable view, zero locks, never in the waits-for graph.
	TierSnapshot = core.TierSnapshot
)

// ParseReadTier maps a flag string (locked|asap|committed|snapshot) onto a
// tier.
var ParseReadTier = core.ParseReadTier

// Snapshot is a long-lived stable read point from Engine.OpenSnapshot:
// every transaction run through it sees the database as of the CSN captured
// at open. Close it promptly — the version reaper preserves everything an
// open snapshot can still reach.
type Snapshot = core.Snapshot

// TxnType is a registered multi-step transaction: steps, assertions, and
// compensations per §2-3 of the paper.
type TxnType = core.TxnType

// Step is one strict-2PL unit of a decomposed transaction.
type Step = core.Step

// Assertion is a predicate a step exposes for later steps to rely on.
type Assertion = core.Assertion

// Compensation semantically reverses a completed step during rollback.
type Compensation = core.Compensation

// Ctx is the per-step execution context handed to step bodies.
type Ctx = core.Ctx

// Stats aggregates engine counters.
type Stats = core.Stats

// The public error taxonomy. Classify with errors.Is/errors.As.
var (
	// ErrUnknownTxnType reports a Run against an unregistered type name.
	ErrUnknownTxnType = core.ErrUnknownTxnType
	// ErrEngineClosed reports a Run against a closed engine.
	ErrEngineClosed = core.ErrEngineClosed
	// ErrAborted is the root of every final rollback.
	ErrAborted = core.ErrAborted
	// ErrUserAbort is returned by a step body to request rollback.
	ErrUserAbort = core.ErrUserAbort
	// ErrRetriesExhausted reports an exhausted retry budget.
	ErrRetriesExhausted = core.ErrRetriesExhausted
	// ErrDeadlockVictim reports a deadlock-victim abort.
	ErrDeadlockVictim = core.ErrDeadlockVictim
	// ErrLockTimeout reports a lock wait that exceeded its budget.
	ErrLockTimeout = core.ErrLockTimeout
	// ErrReadOnly reports a write attempted inside a versioned-tier
	// read-only transaction.
	ErrReadOnly = core.ErrReadOnly
	// ErrLogFailed reports that the write-ahead log failed or froze before
	// the transaction's outcome was durable: nothing is acknowledged, the
	// engine refuses everything after it, and no retry helps.
	ErrLogFailed = core.ErrLogFailed
)

// CompensatedError reports that a transaction was rolled back by running
// compensations for its completed steps (§3.4). It matches ErrAborted under
// errors.Is.
type CompensatedError = core.CompensatedError

// CompensationFailedError reports that a compensation itself could not
// complete; the database may hold exposed uncompensated effects.
type CompensationFailedError = core.CompensationFailedError

// Retryable reports whether err is a transient scheduling outcome that a
// fresh attempt of the same transaction may convert into a commit.
func Retryable(err error) bool { return core.Retryable(err) }

// IsCompensated reports whether err (or anything it wraps) is a
// CompensatedError.
func IsCompensated(err error) bool { return core.IsCompensated(err) }
