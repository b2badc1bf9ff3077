package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accdb/internal/interference"
	"accdb/internal/metrics"
	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

// Mode selects the scheduler.
type Mode int

const (
	// ModeACC is the one-level assertional concurrency control (§3.2-3.3):
	// strict 2PL within steps, assertional locks acquired dynamically with
	// conventional locks, exposure marks and compensation reservations held
	// to commit.
	ModeACC Mode = iota
	// ModeBaseline is the unmodified system of §5: the whole transaction is
	// a single strict-2PL unit, serializable, with one commit record that
	// its reply waits to be durable. The same step scheduler runs it, over
	// the type's undecomposed twin, and restarts it whole on deadlock.
	ModeBaseline
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeACC:
		return "acc"
	case ModeBaseline:
		return "baseline"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// The restart budgets. A deadlock-victim step restarts maxStepRetries times
// before the transaction is rolled back by compensation: the paper's policy,
// "if the deadlock recurs ... rollback". A transaction that scheduling
// aborted cleanly (Retryable) restarts whole at most maxTxnRetries times.
const (
	maxStepRetries = 1
	maxTxnRetries  = 100
)

// Options configures an Engine.
type Options struct {
	Mode Mode
	// WaitTimeout bounds individual lock waits (safety net; 0 = forever).
	WaitTimeout time.Duration
	// Env is the testbed's cost model; nil executes inline.
	Env *Env
	// RecordHistory captures a conflict-checkable access history (tests).
	RecordHistory bool
	// Anatomy, when non-nil, is the latency-anatomy recorder (DESIGN.md §13).
	// Callers that already carry a request span (the network server) pass it
	// in Request.Span; for span-less calls the engine starts a
	// span of its own, so in-process harnesses get the same per-stage
	// histograms and flight recorder as the network path. Nil disables
	// anatomy at zero cost.
	Anatomy *trace.Anatomy
	// Log, when non-nil, is the write-ahead log the engine appends to —
	// typically a disk-backed log from wal.Open. Nil creates a memory-only
	// log that forces at no cost.
	Log *wal.Log
	// VersionGCInterval is the cadence of the background version-chain
	// reaper (DESIGN.md §14): every interval it truncates chains behind the
	// oldest live snapshot. Zero means the 100ms default; negative disables
	// the reaper (tests drive ReapVersions directly).
	VersionGCInterval time.Duration
	// Label names this engine in errors (ErrLogFailed). Empty for
	// single-engine processes; a partitioned cluster sets "partition N" so a
	// failure says which engine instance it concerns.
	Label string
}

// Stats aggregates engine counters.
type Stats struct {
	// Commits counts commit records: committed transactions that wrote. With
	// ReadOnly it is the number of committed locked-tier transactions (the
	// /metrics series accdb_txn_commits_total reports that sum).
	Commits       uint64
	UserAborts    uint64
	Compensations uint64
	CompFailures  uint64
	StepRetries   uint64
	TxnRetries    uint64
	// ReadOnly counts locked-tier transactions that committed without writing:
	// they left no record in the log, so they are not among Commits — which
	// is what recovery will find there.
	ReadOnly uint64
}

// Engine schedules transactions over a DB under the configured mode.
type Engine struct {
	opt     Options
	db      *DB
	lm      spi.LockService
	log     *wal.Log
	env     *Env
	anatomy *trace.Anatomy

	nextTxn atomic.Uint64

	mu    sync.RWMutex
	types map[string]*TxnType

	commits       atomic.Uint64
	userAborts    atomic.Uint64
	compensations atomic.Uint64
	compFailures  atomic.Uint64
	stepRetries   atomic.Uint64
	txnRetries    atomic.Uint64
	readOnly      atomic.Uint64

	closed atomic.Bool

	hist *history

	// Versioned-read state (readtier.go). csnClock is the last assigned
	// commit sequence number; pubMu serializes version publication so the
	// clock only advances once a CSN's versions are fully installed — a
	// reader loading the clock therefore always sees a complete prefix.
	csnClock atomic.Uint64
	pubMu    sync.Mutex
	// pubLSN is the log position of the newest record whose writes were
	// published: what a versioned reader's reply waits for (readtier.go).
	pubLSN   atomic.Uint64
	snapMu   sync.Mutex
	snaps    map[uint64]spi.CSN
	nextSnap uint64 // under snapMu

	readRec *metrics.Recorder // per-tier read-only transaction latencies

	versionsPublished atomic.Uint64
	snapshotsOpened   atomic.Uint64
	gcRuns            atomic.Uint64
	gcPruned          atomic.Uint64
	gcDropped         atomic.Uint64

	reaperStop chan struct{}
	reaperDone chan struct{}
}

// New creates an engine over db using the design-time interference tables,
// configured by functional options (WithMode, WithWAL, WithAnatomy, ...).
// With no options the engine runs the ACC scheduler inline with a
// memory-only log.
func New(db *DB, tables *interference.Tables, opts ...Option) *Engine {
	var opt Options
	for _, apply := range opts {
		apply(&opt)
	}
	lm := spi.NewLockService(tables)
	lm.SetWaitTimeout(opt.WaitTimeout)
	log := opt.Log
	if log == nil {
		log = wal.New(0)
	}
	e := &Engine{
		opt:     opt,
		db:      db,
		lm:      lm,
		log:     log,
		env:     opt.Env,
		anatomy: opt.Anatomy,
		types:   make(map[string]*TxnType),
		snaps:   make(map[uint64]spi.CSN),
		readRec: metrics.NewRecorder(),
	}
	if opt.RecordHistory {
		e.hist = newHistory()
	}
	// Rows loaded into the store before the engine attached were written
	// without CSN stamps; drop any chains their loading seeded so versioned
	// reads fall back to the (committed, quiescent) base rows.
	e.resetVersions()
	e.startReaper()
	return e
}

// Close marks the engine closed and forces the write-ahead log: subsequent
// Run calls fail fast with ErrEngineClosed. It does not interrupt
// transactions already in flight (the server drains them first) and does
// not close an externally-provided log — the opener owns its lifecycle.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.stopReaper()
	e.log.Force()
	return nil
}

// Closed reports whether Close was called.
func (e *Engine) Closed() bool { return e.closed.Load() }

// logFailed builds the error for a transaction whose durability wait ended
// on a failed or frozen log, naming the engine and the log's own error.
func (e *Engine) logFailed() error {
	cause := e.log.Err()
	if cause == nil {
		cause = errors.New("log frozen")
	}
	if e.opt.Label != "" {
		return fmt.Errorf("%w: %s: %v", ErrLogFailed, e.opt.Label, cause)
	}
	return fmt.Errorf("%w: %v", ErrLogFailed, cause)
}

// DB returns the underlying database.
func (e *Engine) DB() *DB { return e.db }

// Log returns the write-ahead log (benchmarks read its force counters;
// recovery tests read its byte image).
func (e *Engine) Log() *wal.Log { return e.log }

// Locks returns the lock service (tests and stats).
func (e *Engine) Locks() spi.LockService { return e.lm }

// Anatomy returns the attached latency-anatomy recorder, or nil when
// disabled.
func (e *Engine) Anatomy() *trace.Anatomy { return e.anatomy }

// Mode returns the configured scheduler mode.
func (e *Engine) Mode() Mode { return e.opt.Mode }

// Register installs a transaction type.
func (e *Engine) Register(tt *TxnType) error {
	if err := tt.validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.types[tt.Name]; dup {
		return fmt.Errorf("core: transaction type %q already registered", tt.Name)
	}
	tt.twin = tt.undecomposed()
	e.types[tt.Name] = tt
	return nil
}

// MustRegister is Register that panics.
func (e *Engine) MustRegister(tt *TxnType) {
	if err := e.Register(tt); err != nil {
		panic(err)
	}
}

// Type returns a registered transaction type by name.
func (e *Engine) Type(name string) *TxnType {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.types[name]
}

// TypeBytes is Type keyed by a byte-slice name — a decoded wire request's
// Name field — without allocating a string for the lookup. The returned
// type's Name is the interned string the hot path should carry onward.
func (e *Engine) TypeBytes(name []byte) *TxnType {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.types[string(name)]
}

// Snapshot returns the engine counters.
func (e *Engine) Snapshot() Stats {
	return Stats{
		Commits:       e.commits.Load(),
		UserAborts:    e.userAborts.Load(),
		Compensations: e.compensations.Load(),
		CompFailures:  e.compFailures.Load(),
		StepRetries:   e.stepRetries.Load(),
		TxnRetries:    e.txnRetries.Load(),
		ReadOnly:      e.readOnly.Load(),
	}
}

// History returns the recorded access history, or nil if disabled.
func (e *Engine) History() *History {
	if e.hist == nil {
		return nil
	}
	return e.hist.snapshot()
}
