package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/experiment"
	"accdb/internal/server/wire"
)

// harnessClass is how the testbed's recorder tallies an outcome.
func harnessClass(o core.Outcome) string {
	r := experiment.NewRecorder()
	r.Record("t", time.Millisecond, o)
	switch s := r.Total(); {
	case s.Rollbacks > 0:
		return "rollback"
	case s.Count > 0:
		return "ok"
	case s.Deadlocks > 0:
		return "deadlock"
	case s.Timeouts > 0:
		return "timeout"
	default:
		return "error"
	}
}

// TestOutcomeOf pins the one classification of a finished transaction: its
// outcome, the wire status that outcome is served as (same name, same
// retryability as core.Retryable), and the testbed's tally. The parent
// column is the tally of the harness's own classifier before it read
// OutcomeOf; only a failed compensation (its cause made it look like a
// deadlock or a timeout) and the client's rebuilt abort (counted as an
// error) changed.
func TestOutcomeOf(t *testing.T) {
	changed := map[string]bool{
		"failed compensation, timeout cause":  true,
		"failed compensation, deadlock cause": true,
		"client's rebuilt abort":              true,
	}
	for _, c := range []struct {
		name    string
		err     error
		outcome core.Outcome
		status  wire.Status
		class   string
		parent  string
	}{
		{"nil", nil, core.OutcomeOK, wire.StatusOK, "ok", "ok"},
		{"wrapped user abort", fmt.Errorf("core: new_order step NO3: %w", core.ErrUserAbort),
			core.OutcomeAborted, wire.StatusAborted, "rollback", "rollback"},
		{"compensated, deadlock cause", &core.CompensatedError{Txn: "new_order", Cause: core.ErrDeadlockVictim},
			core.OutcomeCompensated, wire.StatusCompensated, "rollback", "rollback"},
		{"retries exhausted on a deadlock", fmt.Errorf("core: payment: %w: %w", core.ErrRetriesExhausted, core.ErrDeadlockVictim),
			core.OutcomeDeadlock, wire.StatusDeadlock, "deadlock", "deadlock"},
		{"retries exhausted on a timeout", fmt.Errorf("core: payment: %w: %w", core.ErrRetriesExhausted, core.ErrLockTimeout),
			core.OutcomeLockTimeout, wire.StatusLockTimeout, "timeout", "timeout"},
		{"canceled", fmt.Errorf("core: payment: %w", context.Canceled),
			core.OutcomeCanceled, wire.StatusCanceled, "error", "error"},
		{"deadline", context.DeadlineExceeded, core.OutcomeCanceled, wire.StatusCanceled, "error", "error"},
		{"log failed", fmt.Errorf("core: commit: %w", core.ErrLogFailed),
			core.OutcomeInternal, wire.StatusInternal, "error", "error"},
		{"failed compensation, timeout cause", &core.CompensationFailedError{Txn: "new_order", Cause: core.ErrLockTimeout},
			core.OutcomeInternal, wire.StatusInternal, "error", "timeout"},
		{"failed compensation, deadlock cause", &core.CompensationFailedError{Txn: "new_order", Cause: core.ErrDeadlockVictim},
			core.OutcomeInternal, wire.StatusInternal, "error", "deadlock"},
		{"read-only", fmt.Errorf("core: stock_level (snapshot read) failed: %w", core.ErrReadOnly),
			core.OutcomeBadRequest, wire.StatusBadRequest, "error", "error"},
		{"bad args", fmt.Errorf("tpcc: %w: 0 lines", core.ErrBadArgs),
			core.OutcomeBadRequest, wire.StatusBadRequest, "error", "error"},
		{"unknown type", fmt.Errorf("%w: %q", core.ErrUnknownTxnType, "nope"),
			core.OutcomeUnknownType, wire.StatusUnknownType, "error", "error"},
		{"closed", core.ErrEngineClosed, core.OutcomeDraining, wire.StatusDraining, "error", "error"},
		// accclient rebuilds a StatusAborted reply as ErrAborted, not
		// ErrUserAbort: a remote user abort.
		{"client's rebuilt abort", fmt.Errorf("%w: %s", core.ErrAborted, core.ErrUserAbort),
			core.OutcomeAborted, wire.StatusAborted, "rollback", "error"},
		{"anything else", errors.New("boom"), core.OutcomeInternal, wire.StatusInternal, "error", "error"},
	} {
		got := core.OutcomeOf(c.err)
		if got != c.outcome {
			t.Errorf("%s: OutcomeOf = %v, want %v", c.name, got, c.outcome)
		}
		if got.String() != c.status.String() {
			t.Errorf("%s: outcome %q, want the wire status name %q", c.name, got, c.status)
		}
		if c.status.Retryable() != core.Retryable(c.err) {
			t.Errorf("%s: wire status %v retryable=%v, core.Retryable=%v", c.name, c.status, c.status.Retryable(), core.Retryable(c.err))
		}
		if class := harnessClass(got); class != c.class {
			t.Errorf("%s: harness class %q, want %q", c.name, class, c.class)
		}
		if (c.class != c.parent) != changed[c.name] {
			t.Errorf("%s: harness class %q vs parent %q; only %v may change", c.name, c.class, c.parent, changed)
		}
	}
	if s := core.NumOutcomes.String(); s != "outcome(?)" {
		t.Errorf("NumOutcomes names itself %q", s)
	}
}
