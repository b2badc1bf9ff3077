// Package lock implements the multi-granularity lock manager underlying both
// the baseline strict-2PL scheduler and the assertional concurrency control.
// It is the default spi.LockService implementation, registered via
// spi.RegisterLockService; the scheduler reaches it only through that
// interface, and the request/item/mode vocabulary lives in accdb/internal/spi
// (aliased here for the package's own tests and direct users).
//
// Beyond the conventional IS/IX/S/SIX/X modes the manager supports the three
// lock flavours the paper adds to Open Ingres:
//
//   - assertional locks A(p) (§3.2): attached to items referenced by an
//     active interstep assertion p; they block writers whose step type
//     interferes with p (a design-time table lookup, never a run-time
//     predicate evaluation);
//   - exposure marks (§3.3 end): attached to items a multi-step transaction
//     has written and kept until commit; they block steps that are not
//     declared interleavable at the holder's current breakpoint — this is
//     what keeps legacy and ad-hoc transactions fully isolated;
//   - compensation reservations (§3.4): attached to items a forward step has
//     modified; they prevent other transactions from assertionally locking
//     those items with assertions the compensating step would interfere
//     with, which guarantees a compensating step never waits on an
//     assertional lock.
//
// Deadlocks are detected by cycle search in the waits-for graph at block
// time; a cycle may pass through other partitions' managers by way of a
// global transaction's spi.Group. The victim is the request that completes
// the cycle (§3.4), except that a compensating step is never the victim: the
// manager instead aborts a forward-step waiter on the cycle so the
// compensation can proceed.
//
// The lock table is partitioned into shards — max(16, 4×GOMAXPROCS),
// capped at 64 — each with its own latch, item map and wait queues, like
// the sharded hash table of lock chains in the Ingres lock manager the
// paper modified. A blocked request is additionally published in its
// transaction's group (a scratch slot the SPI reserves) so deadlock
// detection can find it without a global latch; see shard.go and deadlock.go.
package lock

import (
	"accdb/internal/spi"
)

// TxnID identifies a transaction instance.
type TxnID = spi.TxnID

// Level distinguishes the three granules of the lock hierarchy.
type Level = spi.Level

// Lock hierarchy levels, re-exported from the SPI.
const (
	// LevelTable locks a whole relation.
	LevelTable = spi.LevelTable
	// LevelPartition locks a declared key-range of a relation.
	LevelPartition = spi.LevelPartition
	// LevelRow locks a single tuple by primary key.
	LevelRow = spi.LevelRow
)

// Item names a lockable database item.
type Item = spi.Item

// Item constructors, re-exported from the SPI.
var (
	// TableItem names the table-level item of a relation.
	TableItem = spi.TableItem
	// PartitionItem names a partition granule of a relation.
	PartitionItem = spi.PartitionItem
	// RowItem names a row granule of a relation.
	RowItem = spi.RowItem
)

// Mode is a conventional lock mode.
type Mode = spi.Mode

// Conventional lock modes plus the assertional mode, re-exported from the SPI.
const (
	// ModeIS is intention-shared.
	ModeIS = spi.ModeIS
	// ModeIX is intention-exclusive.
	ModeIX = spi.ModeIX
	// ModeS is shared.
	ModeS = spi.ModeS
	// ModeSIX is shared with intention-exclusive.
	ModeSIX = spi.ModeSIX
	// ModeX is exclusive.
	ModeX = spi.ModeX
	// ModeA is an assertional lock; requests carry the assertion ID.
	ModeA = spi.ModeA
)

// conventionalCompat is the standard multi-granularity compatibility matrix.
func conventionalCompat(a, b Mode) bool {
	switch a {
	case ModeIS:
		return b != ModeX
	case ModeIX:
		return b == ModeIS || b == ModeIX
	case ModeS:
		return b == ModeIS || b == ModeS
	case ModeSIX:
		return b == ModeIS
	case ModeX:
		return false
	}
	return false
}

// covers reports whether holding mode `held` already grants the privileges
// of `want`.
func covers(held, want Mode) bool {
	if held == want {
		return true
	}
	switch held {
	case ModeX:
		return true
	case ModeSIX:
		return want == ModeS || want == ModeIX || want == ModeIS
	case ModeS:
		return want == ModeIS
	case ModeIX:
		return want == ModeIS
	}
	return false
}

// sup returns the least mode at least as strong as both arguments (the
// conversion target when a transaction re-requests an item).
func sup(a, b Mode) Mode {
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	// The only incomparable pairs among {IS,IX,S,SIX,X} are (IX,S) and
	// (S,IX); their join is SIX.
	if (a == ModeIX && b == ModeS) || (a == ModeS && b == ModeIX) {
		return ModeSIX
	}
	return ModeX
}

// Oracle answers the design-time interference questions; in production it is
// *interference.Tables, but tests may stub it.
type Oracle = spi.Oracle

// TxnInfo is the lock manager's view of a transaction instance (spi.Txn).
type TxnInfo = spi.Txn

// NewTxnInfo constructs the lock-side descriptor of a transaction.
var NewTxnInfo = spi.NewTxn

// markShard records that the transaction touched the shard with the given
// bitmask bit, in the scratch mask spi.Txn reserves for the lock service.
func markShard(t *TxnInfo, bit uint64) {
	for {
		old := t.ShardMask.Load()
		if old&bit != 0 || t.ShardMask.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// Request describes one lock acquisition (spi.LockRequest).
type Request = spi.LockRequest

// Errors returned by Acquire; identities are shared with the SPI so
// errors.Is works across the seam.
var (
	// ErrDeadlock reports that the request completed a waits-for cycle and
	// was chosen as the victim. The caller aborts and retries the step.
	ErrDeadlock = spi.ErrDeadlock
	// ErrAborted reports that the waiting request was aborted from outside: a
	// compensating step or an undo shot needed the cycle broken.
	ErrAborted = spi.ErrAborted
	// ErrTimeout reports that the configured wait budget elapsed.
	ErrTimeout = spi.ErrTimeout
)
