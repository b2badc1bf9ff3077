package spi

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"accdb/internal/trace"
)

// TxnID identifies a transaction instance.
type TxnID uint64

// Level distinguishes the three granules of the lock hierarchy.
type Level uint8

const (
	// LevelTable locks a whole relation.
	LevelTable Level = iota + 1
	// LevelPartition locks a declared key-range of a relation (the stand-in
	// for Ingres page locks); inserts and deletes lock the partition
	// exclusively, scans lock it shared, which also closes the phantom
	// window for set-valued assertions.
	LevelPartition
	// LevelRow locks a single tuple by primary key.
	LevelRow
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelTable:
		return "table"
	case LevelPartition:
		return "partition"
	case LevelRow:
		return "row"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Item names a lockable database item.
type Item struct {
	Table string
	Level Level
	Key   Key // empty at table level; partition key or row PK below
}

// TableItem names the table-level item of a relation.
func TableItem(table string) Item { return Item{Table: table, Level: LevelTable} }

// PartitionItem names a partition granule of a relation.
func PartitionItem(table string, key Key) Item {
	return Item{Table: table, Level: LevelPartition, Key: key}
}

// RowItem names a row granule of a relation.
func RowItem(table string, pk Key) Item {
	return Item{Table: table, Level: LevelRow, Key: pk}
}

// String renders the item for diagnostics.
func (it Item) String() string {
	if it.Level == LevelTable {
		return it.Table
	}
	return fmt.Sprintf("%s[%s/%x]", it.Table, it.Level, string(it.Key))
}

// Mode is a conventional lock mode.
type Mode uint8

const (
	// ModeIS is intention-shared.
	ModeIS Mode = iota + 1
	// ModeIX is intention-exclusive.
	ModeIX
	// ModeS is shared.
	ModeS
	// ModeSIX is shared with intention-exclusive.
	ModeSIX
	// ModeX is exclusive.
	ModeX
	// ModeA is an assertional lock; requests carry the assertion ID.
	ModeA
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeIS:
		return "IS"
	case ModeIX:
		return "IX"
	case ModeS:
		return "S"
	case ModeSIX:
		return "SIX"
	case ModeX:
		return "X"
	case ModeA:
		return "A"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Oracle answers the design-time interference questions; in production it is
// *interference.Tables, but tests may stub it.
type Oracle interface {
	Interferes(step StepTypeID, a AssertionID) bool
	PrefixInterferes(txn TxnTypeID, completed int, a AssertionID) bool
	MayInterleave(step StepTypeID, holder TxnTypeID, completed int) bool
	// StepName names a step type in the lock service's reports (ByClass).
	StepName(step StepTypeID) string
}

// Txn is the lock service's view of a transaction instance. The engine
// creates one per transaction and advances CompletedSteps at each step
// boundary; exposure conflicts consult the live value so that the
// interleaving specification is breakpoint-accurate.
type Txn struct {
	ID   TxnID
	Type TxnTypeID
	// Comp is the type's compensating step type, NoStep if it has none: what
	// the C reservation on every item the transaction marks (AttachExposure)
	// reserves the item for.
	Comp StepTypeID

	// Span, when non-nil, is the transaction's latency-anatomy span: the
	// lock service charges blocked time to the per-mode lock-wait stages and
	// records each wait in the span's event history. Only the transaction's
	// own goroutine reads the field, so it needs no synchronization.
	Span *trace.Span

	// Locks is scratch space reserved for the lock service: its index of the
	// entries this transaction holds, so a release pass finds them without a
	// lookup. The lock service sets it on the transaction's own goroutine and
	// clears it once nothing is held. The engine never reads or writes it; an
	// implementation may leave it nil.
	Locks any

	// Group is the transaction's vertex in the waits-for graph: its own — a
	// group of one — until the engine, before the first lock request, joins
	// it to the group of a global transaction.
	Group *Group
	solo  Group

	completed atomic.Int32

	// dep is the highest log position of a retired grant (LockService.Retire)
	// this transaction's requests were granted over: data it saw or overwrote
	// whose record is not known durable yet. The lock service writes it under
	// its own latches; the engine reads it once, on the transaction's
	// goroutine, before it answers.
	dep atomic.Uint64
}

// NewTxn constructs the lock-side descriptor of a transaction.
func NewTxn(id TxnID, typ TxnTypeID) *Txn {
	t := &Txn{ID: id, Type: typ}
	t.Group = &t.solo
	return t
}

// CompletedSteps returns the number of forward steps the transaction has
// finished.
func (t *Txn) CompletedSteps() int { return int(t.completed.Load()) }

// AdvanceStep records the completion of one forward step.
func (t *Txn) AdvanceStep() { t.completed.Add(1) }

// SetCompletedSteps overrides the step counter (used by recovery).
func (t *Txn) SetCompletedSteps(n int) { t.completed.Store(int32(n)) }

// NoteDep records that the transaction was granted a lock over a retired
// grant stamped lsn. For the lock service only.
func (t *Txn) NoteDep(lsn uint64) {
	for {
		old := t.dep.Load()
		if old >= lsn || t.dep.CompareAndSwap(old, lsn) {
			return
		}
	}
}

// DepLSN returns the log position through which the log must be durable
// before the transaction's outcome may be acknowledged on account of what it
// read: the maximum over the retired grants it was granted over, 0 if none.
func (t *Txn) DepLSN() uint64 { return t.dep.Load() }

// Group is a vertex of the waits-for graph: one transaction, or the local
// transactions of one global (cross-partition) transaction — its home
// attempts, remote shots and undo shots, each in its own engine and lock
// table. Those run one after another on the coordinator's goroutine, so the
// group is blocked in at most one lock queue at a time, and a blocker that
// belongs to it waits for whatever its blocked member waits for.
type Group struct {
	// ID is the global transaction id, 0 for a transaction on its own.
	ID uint64

	doom   func(cycle string)
	doomed atomic.Bool

	// Undoing is set once the global transaction rolls back by compensating
	// undo shots: from then on its requests are deadlock victims only when a
	// compensating step would otherwise be (§3.4).
	Undoing atomic.Bool

	// Blocked is scratch space reserved for the lock service, like
	// Txn.Locks: the group's currently blocked request, which deadlock
	// detection resolves a blocker to.
	Blocked atomic.Value
}

// NewGroup creates the group of global transaction id. doom, unless nil, is
// what the lock service calls, once, when a member is the victim of a cycle
// that leaves the member's own lock table: it must stop the transaction's
// forward work, because retrying the member's step alone would re-form the
// cycle on locks its siblings keep.
func NewGroup(id uint64, doom func(cycle string)) *Group {
	return &Group{ID: id, doom: doom}
}

// Doom stops the global transaction as a deadlock victim. For the lock
// service only.
func (g *Group) Doom(cycle string) {
	if g.doom != nil && g.doomed.CompareAndSwap(false, true) {
		g.doom(cycle)
	}
}

// LockRequest describes one lock acquisition.
type LockRequest struct {
	// Mode is the requested mode; ModeA requests also set Assertion.
	Mode Mode
	// Step is the requesting step's type, used for interference lookups.
	// Undecomposed transactions use LegacyStep.
	Step StepTypeID
	// Assertion is the assertion being locked when Mode == ModeA.
	Assertion AssertionID
	// Compensating marks requests issued by a compensating step; such a
	// request is never chosen as a deadlock victim.
	Compensating bool
}

// Errors returned by LockService.AcquireCtx.
var (
	// ErrDeadlock reports that the request completed a waits-for cycle and
	// was chosen as the victim. The caller aborts and retries the step.
	ErrDeadlock = errors.New("lock: deadlock victim")
	// ErrAborted reports that the waiting request was aborted from outside:
	// a compensating step or an undo shot needed the cycle broken.
	ErrAborted = errors.New("lock: wait aborted")
	// ErrTimeout reports that the configured wait budget elapsed.
	ErrTimeout = errors.New("lock: wait timed out")
)

// LockStats aggregates lock-service counters.
type LockStats struct {
	Acquisitions   uint64
	Waits          uint64
	WaitNanos      uint64
	Deadlocks      uint64
	VictimsForComp uint64 // forward steps aborted to let a compensation proceed
}

// ClassStats aggregates wait behaviour for one (table, level, mode, waiting
// step type) class; the benchmarks use it to attribute contention to
// specific hot spots and to the steps that wait on them.
type ClassStats struct {
	Waits     uint64
	WaitNanos uint64
}

// LockService is the scheduler's contract with a lock manager: the
// conventional multi-granularity modes plus the paper's three flavours —
// assertional locks (§3.2, requested as ModeA), exposure marks (§3.3) and
// compensation reservations (§3.4). A written item gets its exposure mark and
// its reservation (for Txn.Comp) together, from one AttachExposure call.
//
// Obligations on an implementation:
//
//   - AcquireCtx blocks until grant, deadlock victimhood (ErrDeadlock),
//     external cancellation (ErrAborted), wait-budget expiry (ErrTimeout) or
//     ctx done (ctx.Err()); re-requests by a holder are reentrant, and a
//     stronger re-request converts the held mode (conversions may not wait
//     behind plain requests on the same item — queue-jumping avoids the
//     classic convoy). Requests with Compensating set must never be chosen
//     as deadlock victims; the cycle is broken by aborting a forward waiter.
//   - AttachExposure is idempotent per (txn, item); marks carry the holder's
//     CompletedSteps at attach time so ReleaseStepAbort can drop exactly the
//     aborted step's marks. An exposure mark refuses a conventional request
//     whose step may not interleave at the holder's breakpoint, and an
//     assertional one the holder's executed prefix may have invalidated; the
//     reservation refuses an assertional request Txn.Comp interferes with.
//   - Retire gives up the conventional grants at a step boundary whose log
//     record is appended but not yet durable (controlled lock violation):
//     read-mode grants are dropped; write-mode grants (IX, SIX, X) stay on
//     the item as retired grants stamped with the record's log position. A
//     retired grant blocks nobody, makes no waits-for edge and no longer
//     counts as its holder's conventional lock, but a request granted in a
//     mode that would have conflicted with it notes the stamp in the
//     requester (Txn.NoteDep), so a reader waits for exactly the records it
//     saw. A grant retired at or below the durable watermark is simply
//     dropped. Assertional entries, exposure marks and reservations persist
//     to the final Retire and fall with it; retired grants fall with
//     ReleaseAll, which the holder calls once its own durability wait
//     returned. ReleaseAssertion drops one assertion's A-locks.
//   - Snapshot must render grants, queues and waits-for edges as deadlock
//     detection would see them, an item's exposure mark and reservation as
//     a "D" and a "C" grant.
type LockService interface {
	// SetWaitTimeout bounds each blocking AcquireCtx; zero waits forever.
	SetWaitTimeout(d time.Duration)

	// AcquireCtx obtains the requested lock on item for txn (see the
	// interface comment for the blocking and conversion contract).
	AcquireCtx(ctx context.Context, txn *Txn, item Item, req LockRequest) error
	// AttachExposure marks item as written by txn: exposed — another
	// transaction's conventional access now requires interleaving permission
	// at txn's current breakpoint — and, unless txn.Comp is NoStep, reserved
	// for that compensating step.
	AttachExposure(txn *Txn, item Item)

	// Retire gives up txn's conventional locks at a step boundary whose log
	// record ends at lsn, with the log durable through durable (see the
	// interface comment). final marks the transaction's last boundary —
	// commit or compensation end — where the A/D/C entries are dropped too
	// and only retired grants remain.
	Retire(txn *Txn, lsn, durable uint64, final bool)
	// ReleaseStepAbort releases txn's conventional locks plus the exposure
	// marks (with their reservations) attached during the aborted step.
	ReleaseStepAbort(txn *Txn)
	// ReleaseAssertion drops txn's assertional locks for one assertion type.
	ReleaseAssertion(txn *Txn, a AssertionID)
	// ReleaseAll releases everything txn holds, retired grants included
	// (abort, or after the durability wait that follows the final Retire).
	ReleaseAll(txn *Txn)

	// Stats returns the aggregated counters.
	Stats() LockStats
	// ByClass returns wait tallies per (table, level, mode, waiting step
	// type), keyed "table/level/mode/step" with the oracle's step name.
	ByClass() map[string]ClassStats
	// Snapshot dumps the lock table's current structure for introspection.
	Snapshot() *TableSnapshot
}
