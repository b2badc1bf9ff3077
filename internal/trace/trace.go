// Package trace is the per-transaction record. A Span (span.go) follows one
// request through every hop and keeps two things: the time charged to each
// pipeline stage, which sums to the end-to-end latency, and a bounded
// history of what happened, as SpanEvents of the kinds below. An Anatomy
// (anatomy.go) folds finished spans into per-stage histograms, keeps the most
// recent ones in a flight-recorder ring, and dumps the slow ones as JSONL.
//
// The paper's evaluation (§5, Figures 2-4) attributes response time to
// mechanisms: lock waits, step boundaries, compensations and log forces. The
// span makes the same attribution per transaction on live runs. It is the
// only event record: there is no process-wide event stream.
package trace

// Kind names what a span event records. The taxonomy is documented in
// DESIGN.md §13.
type Kind uint8

const (
	// KindTxnBegin marks the start of a transaction attempt. Item is the
	// transaction type; Mode is the read tier of a snapshot read.
	KindTxnBegin Kind = iota + 1
	// KindTxnCommit marks commit; Dur is the attempt's lifetime.
	KindTxnCommit
	// KindTxnAbort marks an abort without compensation (no completed steps,
	// or a failed snapshot read); Mode is the reason: "scheduling",
	// "canceled", "user", or the read tier.
	KindTxnAbort
	// KindStepBegin marks the start of a forward step; Item is its name.
	KindStepBegin
	// KindStepEnd marks a forward step's completion; Dur is its duration.
	KindStepEnd
	// KindStepRetry marks a forward step restarting after a scheduling
	// abort (deadlock victim, cancelled or timed-out wait).
	KindStepRetry
	// KindCompBegin marks the start of a compensating step; Item is the
	// transaction type.
	KindCompBegin
	// KindCompDone marks a compensation's completion; Dur spans the
	// compensating step.
	KindCompDone
	// KindLockGrant marks a blocked lock request being granted. Item is the
	// locked item, Mode the entry that refused it (DESIGN.md §8: the holder's
	// conventional mode, or "A", "D" or "C"), Dur the time waited.
	KindLockGrant
	// KindLockTimeout marks a wait abandoned by the wait-budget safety net;
	// Item, Mode and Dur as for KindLockGrant.
	KindLockTimeout
	// KindLockAbort marks a wait cancelled from outside: the caller's
	// context, or a kill that frees the way for a compensating step (§3.4).
	KindLockAbort
	// KindDeadlockVictim marks a wait that completed a waits-for cycle and
	// aborted itself.
	KindDeadlockVictim
	// KindWALForce marks the reply's wait for the log to be durable; Dur is
	// the group-commit window plus the sync.
	KindWALForce

	kindMax
)

var kindNames = [kindMax]string{
	KindTxnBegin:       "txn.begin",
	KindTxnCommit:      "txn.commit",
	KindTxnAbort:       "txn.abort",
	KindStepBegin:      "step.begin",
	KindStepEnd:        "step.end",
	KindStepRetry:      "step.retry",
	KindCompBegin:      "comp.begin",
	KindCompDone:       "comp.done",
	KindLockGrant:      "lock.grant",
	KindLockTimeout:    "lock.timeout",
	KindLockAbort:      "lock.abort",
	KindDeadlockVictim: "lock.victim",
	KindWALForce:       "wal.force",
}

// String names the kind as it appears in the flight recorder's JSONL.
func (k Kind) String() string {
	if k < kindMax && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}
