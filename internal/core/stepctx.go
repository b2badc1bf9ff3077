package core

import (
	"context"
	"fmt"
	"slices"

	"accdb/internal/interference"
	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

// Ctx is the data-access surface handed to step bodies (the engine's "SQL
// connection"). Every operation acquires the hierarchy of conventional
// locks, attaches assertional locks for the transaction's active assertions
// (the implemented one-level ACC acquires them dynamically, §3.3), executes
// the statement's CPU phase through the ExecEnv, and records undo images so
// a deadlock-victim step can be rolled back and retried.
//
// Rows are immutable values shared with the store (the spi.Table contract):
// a row that Get, ClaimMin, LookupByIndex, or a GetMany or scan visitor hands
// a body is read-only, and a row given to Insert is the engine's from then on.
// A body changes a row only inside an Update or UpdateWhere closure, which
// gets a private copy.
type Ctx struct {
	e   *Engine
	txn *txnState

	stepIdx      int
	stepType     interference.StepTypeID
	compensating bool
	active       []*Assertion

	// readTier, when not TierLocked, routes every read through the version
	// chains (readtier.go): no locks, no history, writes refused. readCSN is
	// the fixed snapshot CSN when readTier is TierSnapshot.
	readTier ReadTier
	readCSN  spi.CSN

	writes []writeRec
	// wroteItems lists the items the step wrote, in write order, for their
	// D/C marks at step end; a repeat is harmless (the mark is idempotent).
	wroteItems []spi.Item
	stmts      int
}

type writeRec struct {
	table  string
	pk     spi.Key
	before spi.Row // nil: row was inserted
	after  spi.Row // nil: row was deleted
}

// txnState is the engine's per-instance transaction record.
type txnState struct {
	tt    *TxnType
	args  any
	steps []Step
	info  *spi.Txn
	// pending holds the final step's writes until the commit record — that
	// step's end-of-step record — is appended and publishes them as one
	// version batch (readtier.go).
	pending []writeRec
	// begin is the transaction's begin record and unit the record that opened
	// the step or compensation in progress. Neither is appended until the
	// first write (logged): a transaction that writes nothing logs nothing.
	// Recovery-built states start logged — their begin record is in the log.
	begin, unit wal.Record
	logged      bool
	// lastLSN is the end of the last record the transaction appended: what
	// settle waits for before the outcome is acknowledged.
	lastLSN wal.LSN
	// ctx is the caller's context; forward-step lock waits abort when it
	// is cancelled. Nil (recovery-built states) behaves as Background.
	ctx context.Context
	// span is the transaction's latency-anatomy span, nil when anatomy is
	// disabled and on recovery-built states; every use is nil-safe.
	span *trace.Span
}

// Args returns the transaction's argument value (its work area).
func (tc *Ctx) Args() any { return tc.txn.args }

// Context returns the caller context the transaction runs under, never nil.
// A step body that coordinates work outside this engine — the partition
// layer's hook step running remote shots — reads its coordination state
// from here.
func (tc *Ctx) Context() context.Context {
	if tc.txn.ctx == nil {
		return context.Background()
	}
	return tc.txn.ctx
}

// Abort returns the error a step body should return to roll the transaction
// back, optionally wrapping a cause.
func (tc *Ctx) Abort(cause string) error {
	if cause == "" {
		return ErrUserAbort
	}
	return fmt.Errorf("%s: %w", cause, ErrUserAbort)
}

// stmt brackets one statement: CPU phase through the environment, then the
// inter-statement compute time (for every statement but the first, matching
// "compute time between successive SQL statements").
func (tc *Ctx) stmt(work func()) {
	if tc.stmts > 0 && tc.txn.tt.InterStatementCompute {
		tc.e.env.Compute()
	}
	tc.stmts++
	tc.e.env.Statement(work)
}

// versioned reports whether this context reads through the version chains
// instead of the lock manager (Exec at a non-locked tier).
func (tc *Ctx) versioned() bool { return tc.readTier != TierLocked }

// asOf resolves the CSN the current statement reads as of: MaxCSN for
// read-ASAP, the clock's current value for read-committed (per statement),
// and the transaction's fixed CSN for snapshot.
func (tc *Ctx) asOf() spi.CSN {
	switch tc.readTier {
	case TierASAP:
		return spi.MaxCSN
	case TierReadCommitted:
		return spi.CSN(tc.e.csnClock.Load())
	default:
		return tc.readCSN
	}
}

// request builds the lock request for this step.
func (tc *Ctx) request(mode spi.Mode) spi.LockRequest {
	return spi.LockRequest{Mode: mode, Step: tc.stepType, Compensating: tc.compensating}
}

// lockCtx returns the context under which this step's lock requests wait:
// the transaction's caller context for forward steps, Background for
// compensating steps — a compensation must run to completion even after
// the caller has gone away (§3.4); the reservation locks guarantee it can.
func (tc *Ctx) lockCtx() context.Context {
	if tc.compensating || tc.txn.ctx == nil {
		return context.Background()
	}
	return tc.txn.ctx
}

// acquire takes one conventional lock and, in ACC mode, attaches assertional
// locks for every active assertion covering the item.
func (tc *Ctx) acquire(item spi.Item, mode spi.Mode) error {
	if err := tc.e.lm.AcquireCtx(tc.lockCtx(), tc.txn.info, item, tc.request(mode)); err != nil {
		return err
	}
	if tc.e.opt.Mode == ModeACC {
		for _, a := range tc.active {
			if a.Covers != nil && a.Covers(tc.txn.args, item) {
				req := spi.LockRequest{
					Mode: spi.ModeA, Step: tc.stepType,
					Assertion: a.ID, Compensating: tc.compensating,
				}
				if err := tc.e.lm.AcquireCtx(tc.lockCtx(), tc.txn.info, item, req); err != nil {
					return err
				}
				if tc.e.tracer != nil {
					tc.e.emitTxn(trace.KindAssertCheck, tc.txn,
						tc.stepIdx, item.String(), 0, a.Name)
				}
			}
		}
	}
	return nil
}

// lockRead acquires the read hierarchy for a row: IS table, IS partition,
// S row.
func (tc *Ctx) lockRead(table string, keyVals []spi.Value, pk spi.Key) error {
	if err := tc.acquire(spi.TableItem(table), spi.ModeIS); err != nil {
		return err
	}
	if part, ok := tc.e.db.partitionOfKey(table, keyVals); ok {
		if err := tc.acquire(part, spi.ModeIS); err != nil {
			return err
		}
	}
	return tc.acquire(spi.RowItem(table, pk), spi.ModeS)
}

// lockWrite acquires the update hierarchy for an existing row: IX table,
// IX partition, X row.
func (tc *Ctx) lockWrite(table string, keyVals []spi.Value, pk spi.Key) error {
	if err := tc.acquire(spi.TableItem(table), spi.ModeIX); err != nil {
		return err
	}
	if part, ok := tc.e.db.partitionOfKey(table, keyVals); ok {
		if err := tc.acquire(part, spi.ModeIX); err != nil {
			return err
		}
	}
	return tc.acquire(spi.RowItem(table, pk), spi.ModeX)
}

// lockStructural acquires the hierarchy for inserts and deletes: IX table,
// X partition (serializing structural change within the partition, the page
// lock analogue), X row.
func (tc *Ctx) lockStructural(table string, keyVals []spi.Value, pk spi.Key) error {
	if err := tc.acquire(spi.TableItem(table), spi.ModeIX); err != nil {
		return err
	}
	if part, ok := tc.e.db.partitionOfKey(table, keyVals); ok {
		if err := tc.acquire(part, spi.ModeX); err != nil {
			return err
		}
	}
	return tc.acquire(spi.RowItem(table, pk), spi.ModeX)
}

func (tc *Ctx) table(name string) (spi.Table, error) {
	t := tc.e.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("core: no table %q", name)
	}
	return t, nil
}

// recordWrite logs the mutation, saves the undo image, and remembers the
// written items for their D/C marks at step end.
func (tc *Ctx) recordWrite(table string, keyVals []spi.Value, pk spi.Key, before, after spi.Row) {
	tc.writes = append(tc.writes, writeRec{table: table, pk: pk, before: before, after: after})
	tc.e.ensureLogged(tc.txn)
	tc.e.append(tc.txn, wal.Record{
		Type: wal.TWrite, Txn: uint64(tc.txn.info.ID),
		Table: table, PK: pk, Before: before, After: after,
	})
	tc.wroteItems = append(tc.wroteItems, spi.RowItem(table, pk))
	structural := before == nil || after == nil
	if structural {
		if part, ok := tc.e.db.partitionOfKey(table, keyVals); ok {
			tc.wroteItems = append(tc.wroteItems, part)
		}
	}
	tc.e.record(tc.txn, table, pk, true)
}

// Get reads the row with the given primary key. It returns
// spi.ErrNotFound (wrapped) if absent.
func (tc *Ctx) Get(table string, keyVals ...spi.Value) (spi.Row, error) {
	t, err := tc.table(table)
	if err != nil {
		return nil, err
	}
	pk := spi.EncodeKey(keyVals...)
	var row spi.Row
	var gerr error
	if tc.versioned() {
		tc.stmt(func() { row, gerr = t.GetAsOf(pk, tc.asOf()) })
		return row, gerr
	}
	if err := tc.lockRead(table, keyVals, pk); err != nil {
		return nil, err
	}
	tc.stmt(func() { row, gerr = t.Get(pk) })
	tc.e.record(tc.txn, table, pk, false)
	return row, gerr
}

// GetMany reads, in one statement, the rows under the given encoded primary
// keys and hands each present row to visit; missing keys are skipped. It is
// the engine's stand-in for a join against a key list (stock-level's). The
// keys must be in ascending order, which is the lock order: batched acquirers
// that lock in key order cannot deadlock against each other. At the locked
// tier GetMany takes IS on the table, then, key by key, IS on the row's
// partition (if the table is partitioned) and S on the row; unsorted keys are
// refused before any lock is taken. A visitor error stops the read and is
// returned.
func (tc *Ctx) GetMany(table string, pks []spi.Key, visit func(spi.Row) error) error {
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	var verr error
	if tc.versioned() {
		asOf := tc.asOf()
		tc.stmt(func() {
			for _, pk := range pks {
				if row, err := t.GetAsOf(pk, asOf); err == nil {
					if verr = visit(row); verr != nil {
						return
					}
				}
			}
		})
		return verr
	}
	if !slices.IsSorted(pks) {
		return fmt.Errorf("core: GetMany on %s: keys not in ascending order", table)
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIS); err != nil {
		return err
	}
	for _, pk := range pks {
		part, ok, err := tc.e.db.partitionOfPK(table, pk)
		if err != nil {
			return err
		}
		if ok {
			if err := tc.acquire(part, spi.ModeIS); err != nil {
				return err
			}
		}
		if err := tc.acquire(spi.RowItem(table, pk), spi.ModeS); err != nil {
			return err
		}
	}
	tc.stmt(func() {
		for _, pk := range pks {
			if row, err := t.Get(pk); err == nil {
				if verr = visit(row); verr != nil {
					return
				}
			}
		}
	})
	for _, pk := range pks {
		tc.e.record(tc.txn, table, pk, false)
	}
	return verr
}

// queueItem names the granule ClaimMin pops from: the key range eqVals
// selects in the index. It is an item of its own, not the table's partition
// granule, so claimers exclude each other there without touching the writers
// that append to the queue.
func queueItem(table, index string, eqVals []spi.Value) spi.Item {
	return spi.PartitionItem(table+"."+index, spi.EncodeKey(eqVals...))
}

// ClaimMin atomically pops the index-least row matching eqVals: it X-locks
// the queue (queueItem), probes the index for the head, X-locks that row,
// re-verifies it, and deletes it — the head-of-queue claim a delivery
// performs. The probe itself takes no row locks (it reads the index the way
// an index page lookup would). Returns (nil, nil) when no row matches.
//
// A successful claim counts as a write of the queue item, so the claimer's
// exposure mark stays there until it commits or is compensated: a claimer
// that may not interleave with it cannot pop the next row meanwhile. Without
// that, the deleted head is simply invisible to the next probe, a later
// claimer overtakes and commits, and compensating the first one puts its row
// back BEHIND a row that is gone for good — a hole in the queue.
func (tc *Ctx) ClaimMin(table, index string, eqVals []spi.Value) (spi.Row, error) {
	if tc.versioned() {
		return nil, ErrReadOnly
	}
	t, err := tc.table(table)
	if err != nil {
		return nil, err
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIX); err != nil {
		return nil, err
	}
	queue := queueItem(table, index, eqVals)
	if err := tc.acquire(queue, spi.ModeX); err != nil {
		return nil, err
	}
	for {
		var headPK spi.Key
		found := false
		tc.stmt(func() {
			t.IndexScan(index, eqVals, func(pk spi.Key, _ spi.Row) bool {
				headPK = pk
				found = true
				return false
			})
		})
		if !found {
			tc.e.record(tc.txn, table, "", false)
			return nil, nil
		}
		if err := tc.acquire(spi.RowItem(table, headPK), spi.ModeX); err != nil {
			return nil, err
		}
		var old spi.Row
		var derr error
		tc.stmt(func() { old, derr = t.Delete(headPK) })
		if derr != nil {
			continue // the head went between probe and grant; re-probe
		}
		keyVals := t.Schema().PKOf(old)
		tc.recordWrite(table, keyVals, headPK, old, nil)
		tc.wroteItems = append(tc.wroteItems, queue)
		return old, nil
	}
}

// Insert adds a new row. The row belongs to the engine from here on: the
// table, the log record and the published version share it, so the body must
// not change it afterwards (build a fresh row per Insert).
func (tc *Ctx) Insert(table string, row spi.Row) error {
	if tc.versioned() {
		return ErrReadOnly
	}
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	if err := t.Schema().CheckRow(row); err != nil {
		return err
	}
	keyVals := t.Schema().PKOf(row)
	pk := spi.EncodeKey(keyVals...)
	if err := tc.lockStructural(table, keyVals, pk); err != nil {
		return err
	}
	var ierr error
	tc.stmt(func() { ierr = t.Insert(row) })
	if ierr != nil {
		return ierr
	}
	tc.recordWrite(table, keyVals, pk, nil, row)
	return nil
}

// Delete removes the row with the given primary key.
func (tc *Ctx) Delete(table string, keyVals ...spi.Value) error {
	if tc.versioned() {
		return ErrReadOnly
	}
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	pk := spi.EncodeKey(keyVals...)
	if err := tc.lockStructural(table, keyVals, pk); err != nil {
		return err
	}
	var old spi.Row
	var derr error
	tc.stmt(func() { old, derr = t.Delete(pk) })
	if derr != nil {
		return derr
	}
	tc.recordWrite(table, keyVals, pk, old, nil)
	return nil
}

// Update applies mutate to a private copy of the row under the given key and
// stores the result: mutate may change its argument in place, but not its
// primary-key columns, and not after it returns. The copy is the one a write
// needs — the table, the step's undo image, the log record and the published
// version then share it.
func (tc *Ctx) Update(table string, keyVals []spi.Value, mutate func(spi.Row) error) error {
	if tc.versioned() {
		return ErrReadOnly
	}
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	pk := spi.EncodeKey(keyVals...)
	if err := tc.lockWrite(table, keyVals, pk); err != nil {
		return err
	}
	var uerr error
	var before spi.Row
	tc.stmt(func() {
		var row spi.Row
		row, uerr = t.Get(pk)
		if uerr != nil {
			return
		}
		row = row.Clone()
		if uerr = mutate(row); uerr != nil {
			return
		}
		before, uerr = t.Update(pk, row)
		if uerr == nil {
			tc.recordWrite(table, keyVals, pk, before, row)
		}
	})
	return uerr
}

// ScanPartition visits, in primary-key-within-partition order, every row of
// the given partition (shared partition lock: concurrent structural change
// is excluded, closing the phantom window). The visitor may return
// ErrStopScan to end early.
func (tc *Ctx) ScanPartition(table string, partVals []spi.Value, visit func(spi.Row) error) error {
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	if !tc.e.db.partitioned(table) {
		return fmt.Errorf("core: table %q is not partitioned", table)
	}
	var serr error
	if tc.versioned() {
		asOf := tc.asOf()
		tc.stmt(func() {
			serr = t.IndexScanAsOf(PartIndex, partVals, asOf, func(pk spi.Key, row spi.Row) bool {
				if err := visit(row); err != nil {
					if err != ErrStopScan {
						serr = err
					}
					return false
				}
				return true
			})
		})
		return serr
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIS); err != nil {
		return err
	}
	part := tc.e.db.partitionItem(table, partVals)
	if err := tc.acquire(part, spi.ModeS); err != nil {
		return err
	}
	tc.stmt(func() {
		serr = t.IndexScan(PartIndex, partVals, func(pk spi.Key, row spi.Row) bool {
			if err := visit(row); err != nil {
				if err != ErrStopScan {
					serr = err
				}
				return false
			}
			return true
		})
	})
	tc.e.record(tc.txn, table, part.Key, false)
	return serr
}

// UpdateWhere visits every row of a partition under an exclusive partition
// lock and replaces those for which mutate returns a changed row. mutate gets
// a private copy of each row, which it may change in place, and returns
// (nil, nil) to leave the row untouched, (row, nil) to store it — the row then
// belongs to the engine, as with Insert — or (nil, ErrDeleteRow) to delete it.
func (tc *Ctx) UpdateWhere(table string, partVals []spi.Value, mutate func(spi.Row) (spi.Row, error)) error {
	if tc.versioned() {
		return ErrReadOnly
	}
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	if !tc.e.db.partitioned(table) {
		return fmt.Errorf("core: table %q is not partitioned", table)
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIX); err != nil {
		return err
	}
	part := tc.e.db.partitionItem(table, partVals)
	if err := tc.acquire(part, spi.ModeX); err != nil {
		return err
	}
	type change struct {
		pk      spi.Key
		keyVals []spi.Value
		after   spi.Row // nil: delete
	}
	var changes []change
	var serr error
	tc.stmt(func() {
		serr = t.IndexScan(PartIndex, partVals, func(pk spi.Key, row spi.Row) bool {
			after, err := mutate(row.Clone())
			if err == ErrDeleteRow {
				changes = append(changes, change{pk, t.Schema().PKOf(row), nil})
				return true
			}
			if err != nil {
				if err != ErrStopScan {
					serr = err
				}
				return false
			}
			if after != nil {
				changes = append(changes, change{pk, t.Schema().PKOf(after), after})
			}
			return true
		})
		if serr != nil {
			return
		}
		for _, ch := range changes {
			if ch.after == nil {
				old, err := t.Delete(ch.pk)
				if err != nil {
					serr = err
					return
				}
				tc.recordWrite(table, ch.keyVals, ch.pk, old, nil)
				continue
			}
			old, err := t.Update(ch.pk, ch.after)
			if err != nil {
				serr = err
				return
			}
			tc.recordWrite(table, ch.keyVals, ch.pk, old, ch.after)
		}
	})
	return serr
}

// LookupByIndex returns, in index order, every row whose indexed
// columns equal eqVals. Each matched row is locked S individually (no
// partition lock is involved, so — like an Ingres index lookup under row
// locks — the result is not phantom-protected; TPC-C's uses are over static
// row populations).
func (tc *Ctx) LookupByIndex(table, index string, eqVals []spi.Value) ([]spi.Row, error) {
	t, err := tc.table(table)
	if err != nil {
		return nil, err
	}
	if tc.versioned() {
		asOf := tc.asOf()
		var rows []spi.Row
		var serr error
		tc.stmt(func() {
			serr = t.IndexScanAsOf(index, eqVals, asOf, func(_ spi.Key, row spi.Row) bool {
				rows = append(rows, row)
				return true
			})
		})
		return rows, serr
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIS); err != nil {
		return nil, err
	}
	var pks []spi.Key
	var serr error
	tc.stmt(func() {
		serr = t.IndexScan(index, eqVals, func(pk spi.Key, _ spi.Row) bool {
			pks = append(pks, pk)
			return true
		})
	})
	if serr != nil {
		return nil, serr
	}
	rows := make([]spi.Row, 0, len(pks))
	for _, pk := range pks {
		// Lock, then re-fetch: the row may have changed (or vanished)
		// between the index probe and the grant.
		if err := tc.acquire(spi.RowItem(table, pk), spi.ModeS); err != nil {
			return nil, err
		}
		row, err := t.Get(pk)
		if err != nil {
			continue // deleted since the probe; skip
		}
		tc.e.record(tc.txn, table, pk, false)
		rows = append(rows, row)
	}
	return rows, nil
}

// Scan visits every row of the table under a shared table lock.
func (tc *Ctx) Scan(table string, visit func(spi.Row) error) error {
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	var serr error
	if tc.versioned() {
		asOf := tc.asOf()
		tc.stmt(func() {
			t.ScanAsOf(asOf, func(_ spi.Key, row spi.Row) bool {
				if err := visit(row); err != nil {
					if err != ErrStopScan {
						serr = err
					}
					return false
				}
				return true
			})
		})
		return serr
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeS); err != nil {
		return err
	}
	tc.stmt(func() {
		t.Scan(func(pk spi.Key, row spi.Row) bool {
			if err := visit(row); err != nil {
				if err != ErrStopScan {
					serr = err
				}
				return false
			}
			return true
		})
	})
	tc.e.record(tc.txn, table, "", false)
	return serr
}

// Sentinel errors for scan visitors.
var (
	// ErrStopScan ends a scan early without error.
	ErrStopScan = fmt.Errorf("core: stop scan")
	// ErrDeleteRow instructs UpdateWhere to delete the visited row.
	ErrDeleteRow = fmt.Errorf("core: delete row")
)

// undo reverts this step's writes in reverse order using the saved images.
// Safe because the step still holds exclusive locks on everything it wrote.
func (tc *Ctx) undo() {
	for i := len(tc.writes) - 1; i >= 0; i-- {
		w := tc.writes[i]
		t := tc.e.db.Table(w.table)
		t.Apply(w.pk, w.before)
	}
	tc.writes = nil
	tc.wroteItems = nil
}
