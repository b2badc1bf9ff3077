package core

import (
	"context"
	"errors"
	"fmt"

	"accdb/internal/spi"
)

// The engine's error taxonomy. Every failure surfaced by Exec is
// classifiable with errors.Is/errors.As against the sentinels below — the
// server maps them onto wire status codes, the client maps those codes back,
// and both ends (plus the in-process retry loops) share one Retryable
// predicate instead of re-deriving retryability from error text.
var (
	// ErrUnknownTxnType reports a Run against a transaction type name that
	// was never registered on the engine.
	ErrUnknownTxnType = errors.New("acc: unknown transaction type")

	// ErrEngineClosed reports a Run against an engine whose Close was
	// called; nothing was scheduled.
	ErrEngineClosed = errors.New("acc: engine closed")

	// ErrAborted is the root of every final rollback: user aborts wrap it,
	// and CompensatedError matches it via errors.Is. A caller that only
	// cares whether the transaction's effects stand can test this one
	// sentinel.
	ErrAborted = errors.New("acc: transaction aborted")

	// ErrUserAbort is returned (possibly wrapped) by a step body to request
	// rollback of the transaction. It wraps ErrAborted.
	ErrUserAbort = fmt.Errorf("%w by application", ErrAborted)

	// ErrRetriesExhausted reports that a transaction could not complete
	// within the configured retry budget. It wraps the last scheduling
	// abort, so errors.Is still identifies the underlying cause.
	ErrRetriesExhausted = errors.New("acc: retries exhausted")

	// ErrDeadlockVictim reports that the transaction was chosen as a
	// deadlock victim and abandoned after the retry budget. It is the lock
	// layer's sentinel re-exported under the public taxonomy.
	ErrDeadlockVictim = spi.ErrDeadlock

	// ErrLockTimeout reports that a lock wait exceeded the configured wait
	// budget. It is the lock layer's sentinel re-exported under the public
	// taxonomy.
	ErrLockTimeout = spi.ErrTimeout

	// ErrLogFailed reports that the write-ahead log failed (a write or fsync
	// error) or froze before the transaction's outcome was durable: whatever
	// it did is not acknowledged and will not survive a restart. The engine
	// is fail-stop from then on — every later transaction gets this error —
	// and the condition is never retryable.
	ErrLogFailed = errors.New("acc: write-ahead log failed")

	// ErrBadArgs is returned (wrapped) by a step body that refuses its
	// argument record before touching the database — a record a remote
	// caller built to the wrong shape. Nothing ran; the server answers it as
	// a bad request.
	ErrBadArgs = errors.New("acc: malformed argument record")

	// ErrReadOnly reports a write operation attempted inside a read-only
	// (versioned-tier) transaction: the lock-free read path has no locks, no
	// undo images, and no compensation, so writes are refused outright.
	ErrReadOnly = errors.New("acc: write inside read-only transaction")
)

// Retryable reports whether err is a transient scheduling outcome that a
// fresh attempt of the same transaction may convert into a commit: a
// deadlock victim, a timed-out lock wait, or a wait aborted from outside
// (a forward step killed to let a compensation proceed). Final outcomes —
// commits, user aborts, compensated rollbacks (their effects were
// semantically reversed and their identifiers consumed), failed
// compensations, cancelled contexts — are not retryable. The in-process
// retry loops, the accd server, and the accclient pool all share this
// predicate.
func Retryable(err error) bool {
	if err == nil || IsCompensated(err) {
		return false
	}
	var cf *CompensationFailedError
	if errors.As(err, &cf) {
		return false
	}
	if canceled(err) {
		return false
	}
	return errors.Is(err, spi.ErrDeadlock) || errors.Is(err, spi.ErrTimeout) ||
		errors.Is(err, spi.ErrAborted)
}

// canceled reports whether err stems from the caller's context being
// cancelled or past its deadline.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// CompensatedError reports that a transaction was rolled back by running its
// compensating step; Cause preserves the triggering error. It matches
// ErrAborted under errors.Is — the rollback is final — while errors.As
// still exposes the compensation itself.
type CompensatedError struct {
	Txn   string
	Cause error
}

// Error implements error.
func (e *CompensatedError) Error() string {
	return fmt.Sprintf("core: %s compensated: %v", e.Txn, e.Cause)
}

// Unwrap exposes the cause.
func (e *CompensatedError) Unwrap() error { return e.Cause }

// Is reports a match against ErrAborted: a compensated transaction's
// effects do not stand. The scheduling cause that triggered the rollback
// remains reachable through Unwrap, but Retryable refuses compensated
// outcomes regardless — the rollback consumed identifiers (e.g. TPC-C
// order numbers) and must not be replayed blindly.
func (e *CompensatedError) Is(target error) bool { return target == ErrAborted }

// IsCompensated reports whether err indicates a compensated rollback.
func IsCompensated(err error) bool {
	var ce *CompensatedError
	return errors.As(err, &ce)
}

// CompensationFailedError reports that a compensating step could not
// complete; the database may hold the transaction's partial effects. This is
// a serious condition (the paper's design makes it unreachable when
// reservations are declared correctly) and is never retried.
type CompensationFailedError struct {
	Txn   string
	Cause error
}

// Error implements error.
func (e *CompensationFailedError) Error() string {
	return fmt.Sprintf("core: compensation of %s failed: %v", e.Txn, e.Cause)
}

// Unwrap exposes the cause.
func (e *CompensationFailedError) Unwrap() error { return e.Cause }

// Outcome is how a finished transaction ended: the one classification of an
// Exec error. The server's wire status, every span's status and the
// harness's tallies all read it, so the three cannot disagree.
type Outcome uint8

// The outcomes. String names each after its wire status.
const (
	OutcomeOK          Outcome = iota // committed (or a read-only transaction completed)
	OutcomeCompensated                // rolled back by compensation (§3.4): final
	OutcomeAborted                    // rolled back before exposing anything: final
	OutcomeDeadlock                   // deadlock victim past the retry budget
	OutcomeLockTimeout                // a lock wait exceeded its budget past the retry budget
	OutcomeCanceled                   // the caller's context ended first
	OutcomeUnknownType                // no such transaction type
	OutcomeDraining                   // the engine was closed
	OutcomeBadRequest                 // refused as sent: malformed arguments or a write at the snapshot tier
	OutcomeInternal                   // a failed log, a failed compensation, anything else
	NumOutcomes                       // count; not an outcome
)

var outcomeNames = [NumOutcomes]string{
	"ok", "compensated", "aborted", "deadlock", "lock-timeout", "canceled",
	"unknown-type", "draining", "bad-request", "internal",
}

// String returns the outcome's wire status name.
func (o Outcome) String() string {
	if o < NumOutcomes {
		return outcomeNames[o]
	}
	return "outcome(?)"
}

// OutcomeOf classifies the error Exec returned. The order matters: a failed
// log is first, whatever wraps it, because nothing about the outcome is
// durable; a failed compensation is next, because its cause (a deadlock, a
// timeout) must not make it look retryable — it may have left partial
// effects and is never replayed; a compensated rollback precedes its cause
// because it too is final, and a client's bookkeeping needs to know that
// compensation ran (the identifiers it consumed stay consumed).
func OutcomeOf(err error) Outcome {
	var cf *CompensationFailedError
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, ErrLogFailed), errors.As(err, &cf):
		return OutcomeInternal
	case IsCompensated(err):
		return OutcomeCompensated
	case errors.Is(err, ErrUnknownTxnType):
		return OutcomeUnknownType
	case errors.Is(err, ErrEngineClosed):
		return OutcomeDraining
	case canceled(err):
		return OutcomeCanceled
	case errors.Is(err, ErrDeadlockVictim):
		return OutcomeDeadlock
	case errors.Is(err, ErrLockTimeout):
		return OutcomeLockTimeout
	case errors.Is(err, ErrReadOnly), errors.Is(err, ErrBadArgs):
		return OutcomeBadRequest
	case errors.Is(err, ErrAborted):
		return OutcomeAborted
	default:
		return OutcomeInternal
	}
}
