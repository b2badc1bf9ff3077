// Package lock implements the multi-granularity lock manager underlying both
// the baseline strict-2PL scheduler and the assertional concurrency control.
// It is the spi.LockService implementation, registered via
// spi.RegisterLockService; the scheduler reaches it only through that
// interface, and the request/item/mode vocabulary it speaks is
// accdb/internal/spi's, used here directly.
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
//     assertional lock. A written item's reservation and exposure mark are
//     one grant (AttachExposure), told apart wherever they can be seen.
//
// Deadlocks are detected by cycle search in the waits-for graph at block
// time; a cycle may pass through other partitions' managers by way of a
// global transaction's spi.Group. The victim is the request that completes
// the cycle (§3.4), except that a compensating step is never the victim: the
// manager instead aborts a forward-step waiter on the cycle so the
// compensation can proceed.
//
// The lock table is partitioned into shards — max(16, 4×GOMAXPROCS),
// capped at 64 — each with its own latch, lock chains and wait queues, like
// the sharded hash table of lock chains in the Ingres lock manager the
// paper modified. A blocked request is additionally published in its
// transaction's group (a scratch slot the SPI reserves) so deadlock
// detection can find it without a global latch; see shard.go and deadlock.go.
package lock

import (
	"accdb/internal/spi"
)

// conventionalCompat is the standard multi-granularity compatibility matrix.
func conventionalCompat(a, b spi.Mode) bool {
	switch a {
	case spi.ModeIS:
		return b != spi.ModeX
	case spi.ModeIX:
		return b == spi.ModeIS || b == spi.ModeIX
	case spi.ModeS:
		return b == spi.ModeIS || b == spi.ModeS
	case spi.ModeSIX:
		return b == spi.ModeIS
	case spi.ModeX:
		return false
	}
	return false
}

// covers reports whether holding mode `held` already grants the privileges
// of `want`.
func covers(held, want spi.Mode) bool {
	if held == want {
		return true
	}
	switch held {
	case spi.ModeX:
		return true
	case spi.ModeSIX:
		return want == spi.ModeS || want == spi.ModeIX || want == spi.ModeIS
	case spi.ModeS:
		return want == spi.ModeIS
	case spi.ModeIX:
		return want == spi.ModeIS
	}
	return false
}

// sup returns the least mode at least as strong as both arguments (the
// conversion target when a transaction re-requests an item).
func sup(a, b spi.Mode) spi.Mode {
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	// The only incomparable pairs among {IS,IX,S,SIX,X} are (IX,S) and
	// (S,IX); their join is SIX.
	if (a == spi.ModeIX && b == spi.ModeS) || (a == spi.ModeS && b == spi.ModeIX) {
		return spi.ModeSIX
	}
	return spi.ModeX
}
