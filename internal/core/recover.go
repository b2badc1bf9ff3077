package core

import (
	"fmt"

	"accdb/internal/spi"
	"accdb/internal/wal"
)

// Crash recovery (§3.4 "in the case of a system crash, compensating steps
// are used"). Steps are atomic: recovery replays the writes of every
// completed step (their results may already have been observed by committed
// transactions, so they cannot be undone) and discards in-flight steps.
// Transactions left with a completed prefix and no commit are then
// compensated using the work area saved in their last end-of-step record.
// The commit record is the final step's end-of-step record, so that prefix
// never includes the final step: a log cut inside it leaves it in flight.
//
// Restart recovery runs in three passes over the durable log image:
//
//  1. Analysis (wal.Analyze) classifies every transaction and tolerates the
//     torn tail a mid-append crash leaves.
//  2. Redo (Analysis.Apply) reapplies, in log order, the writes of every
//     completed step and completed compensation over the loaded base state.
//  3. Undo-by-compensation: for each transaction with exposed interstep
//     state, the engine re-attaches its D/C marks (exposure marks carrying
//     the compensation reservation) to the items its completed steps wrote,
//     then runs the compensating step under them — so transactions admitted
//     after recovery observe exactly the protocol a live compensation gives.

// CompensatedTxn identifies one transaction rolled back by compensation
// during recovery.
type CompensatedTxn struct {
	// ID is the transaction's original log identity.
	ID uint64
	// Type is the registered transaction type name.
	Type string
	// Args is the decoded work area — the same value the compensating step
	// received. Consistency checkers use it to account for identifiers the
	// rolled-back transaction consumed (e.g. TPC-C order numbers).
	Args any
}

// RecoverResult summarizes a recovery run.
type RecoverResult struct {
	// Committed is the number of transactions that had committed.
	Committed int
	// Compensated lists the transactions rolled back by compensation during
	// recovery, by type name (in transaction-ID order).
	Compensated []string
	// CompensatedTxns carries the same transactions with their decoded work
	// areas, for consistency accounting.
	CompensatedTxns []CompensatedTxn
	// TornTail records tail damage found in the log image, if any. A Clean
	// tear is the normal mark of a mid-append crash.
	TornTail *wal.ErrTornTail
	// Analysis is the underlying log analysis.
	Analysis *wal.Analysis
}

// Recover rebuilds database state from a log image. The engine's catalog
// must hold the pre-log base state (for the experiments: the freshly loaded
// initial database, matching an archive copy plus log in a disk system).
// After replay, every pending multi-step transaction is compensated under
// re-acquired exposure and reservation locks, and the engine's transaction
// IDs are advanced past every logged ID so post-recovery work cannot collide
// with logged history — a second crash during or after recovery analyzes
// cleanly.
func (e *Engine) Recover(logData []byte) (*RecoverResult, error) {
	analysis, err := wal.Analyze(logData)
	if err != nil {
		return nil, err
	}
	if torn := analysis.TornTail; torn != nil && !torn.Clean() {
		// A non-clean tear means durable records were destroyed — committed
		// work may be missing from the prefix. Redo would silently produce a
		// state inconsistent with what the system once acknowledged.
		return nil, fmt.Errorf("core: recovery: log is damaged beyond a crash tail: %w", torn)
	}
	err = analysis.Apply(logData, func(table string, pk spi.Key, after spi.Row) {
		t := e.db.Table(table)
		if t != nil {
			t.Apply(pk, after)
		}
	})
	if err != nil {
		return nil, err
	}
	// New transactions — the re-admitted workload, and the compensations
	// below — must not reuse logged IDs, or a second crash would interleave
	// two unrelated histories under one ID.
	for {
		cur := e.nextTxn.Load()
		if cur >= analysis.MaxTxn || e.nextTxn.CompareAndSwap(cur, analysis.MaxTxn) {
			break
		}
	}
	res := &RecoverResult{Analysis: analysis, TornTail: analysis.TornTail}
	for _, t := range analysis.Txns {
		if t.Committed {
			res.Committed++
		}
	}
	for _, pending := range analysis.Pending() {
		tt := e.Type(pending.Type)
		if tt == nil {
			return nil, fmt.Errorf("core: recovery: unknown transaction type %q", pending.Type)
		}
		if tt.DecodeArgs == nil {
			return nil, fmt.Errorf("core: recovery: %s has no work-area decoder", pending.Type)
		}
		args, err := tt.DecodeArgs(pending.WorkArea)
		if err != nil {
			return nil, fmt.Errorf("core: recovery: decoding work area of %s: %w", pending.Type, err)
		}
		// The compensation runs under the transaction's ORIGINAL identity, so
		// its CompBegin/CompDone records land in the log under the logged ID
		// — a second crash after this point re-analyzes the transaction as
		// compensated instead of compensating it twice.
		txn := &txnState{
			tt:     tt,
			args:   args,
			info:   tt.lockTxn(spi.TxnID(pending.ID)),
			logged: true,
		}
		txn.info.SetCompletedSteps(pending.CompletedSteps)
		// Re-acquire the D/C marks the crash dissolved: the completed steps'
		// written items are in exposed interstep state until the compensation
		// commits, and the reservation is what guarantees the compensating
		// step cannot deadlock against post-recovery traffic.
		for _, w := range pending.Written {
			e.lm.AttachExposure(txn.info, spi.RowItem(w.Table, w.PK))
		}
		if err := e.compensate(txn, pending.CompletedSteps); err != nil {
			return nil, err
		}
		res.Compensated = append(res.Compensated, tt.Name)
		res.CompensatedTxns = append(res.CompensatedTxns, CompensatedTxn{
			ID: pending.ID, Type: tt.Name, Args: args,
		})
	}
	// Redo replayed writes through Table.Apply, which seeds version chains
	// with un-stamped pre-images; the compensations above published more.
	// The database is now committed and quiescent, so drop the chains — the
	// as-of base-row fallback is exact, and stale pre-crash CSNs must not
	// leak into the fresh clock's numbering.
	e.resetVersions()
	return res, nil
}

// RecoverLog is Recover over a reopened disk-backed log: it recovers from
// the log's durable image so the engine can resume appending to the same
// log afterwards. wal.Open already truncated any torn tail physically, so
// the image analyzes clean; the tear Open found is carried into the result.
func (e *Engine) RecoverLog(l *wal.Log) (*RecoverResult, error) {
	res, err := e.Recover(l.Recovered())
	if res != nil && res.TornTail == nil {
		res.TornTail = l.TornTail()
	}
	return res, err
}
