package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"accdb/internal/interference"
	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

// Ctx is the data-access surface handed to step bodies (the engine's "SQL
// connection"). Every operation acquires the hierarchy of conventional
// locks, attaches assertional locks for the transaction's active assertions
// (the implemented one-level ACC acquires them dynamically, §3.3), brackets
// the statement's CPU phase with the engine's Env, and records undo images so a
// deadlock-victim step can be rolled back and retried.
//
// A transaction attempt has one Ctx, reset for each step and for the
// compensation: a body must not keep it past its return. The write lists
// keep their backing arrays across those resets, so a statement allocates
// only what it keeps — the key it encodes, the row copy an Update writes,
// the version chain the store grows.
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

	// readTier, when TierSnapshot, routes every read through the version
	// chains (readtier.go) as of readCSN: no locks, no history, writes
	// refused.
	readTier ReadTier
	readCSN  spi.CSN

	writes []writeRec
	// wroteItems lists the items the step wrote, in write order, for their
	// D/C marks at step end; a repeat is harmless (the mark is idempotent).
	wroteItems []spi.Item
	stmts      int
}

// writeRec is one write of a step: its table handle, so publishing and undo
// look nothing up — a store hands out one handle per table, so handles
// compare like names — and its before and after images.
type writeRec struct {
	t      spi.Table
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
	// tc is the attempt's one step context (stepCtx).
	tc Ctx
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

// stepCtx readies txn's one Ctx for step j of type typ — for the
// compensation when compensating is set, stepIdx then being the number of
// completed forward steps — and returns it. Everything else resets; the
// write lists keep their backing arrays.
func (e *Engine) stepCtx(txn *txnState, j int, typ interference.StepTypeID, active []*Assertion, compensating bool) *Ctx {
	tc := &txn.tc
	*tc = Ctx{
		e: e, txn: txn, stepIdx: j, stepType: typ, active: active, compensating: compensating,
		writes: tc.writes[:0], wroteItems: tc.wroteItems[:0],
	}
	return tc
}

// Args returns the transaction's argument value (its work area).
func (tc *Ctx) Args() any { return tc.txn.args }

// Step returns the index of the running step in the instance's step
// sequence — in a compensation, the number of completed forward steps it
// undoes. Steps that share one body, such as new-order's line steps, tell
// their instances apart by it.
func (tc *Ctx) Step() int { return tc.stepIdx }

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

// begin opens one statement: the inter-statement compute time (for every
// statement of the step but the first, matching "compute time between
// successive SQL statements"), then the environment's CPU phase, which end
// closes.
func (tc *Ctx) begin() {
	if tc.stmts > 0 && tc.txn.tt.InterStatementCompute {
		tc.e.env.Compute()
	}
	tc.stmts++
	tc.e.env.BeginStatement()
}

// end closes the statement begin opened.
func (tc *Ctx) end() { tc.e.env.EndStatement() }

// versioned reports whether this context reads through the version chains
// instead of the lock manager (Exec at the snapshot tier).
func (tc *Ctx) versioned() bool { return tc.readTier != TierLocked }

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

// acquire takes one conventional lock and attaches assertional locks for
// every active assertion covering the item. The baseline scheduler runs
// undecomposed types, whose one step declares no precondition, so it attaches
// none.
func (tc *Ctx) acquire(item spi.Item, mode spi.Mode) error {
	if err := tc.e.lm.AcquireCtx(tc.lockCtx(), tc.txn.info, item, tc.request(mode)); err != nil {
		return err
	}
	for _, a := range tc.active {
		if a.Covers != nil && a.Covers(tc.txn.args, item) {
			req := spi.LockRequest{
				Mode: spi.ModeA, Step: tc.stepType,
				Assertion: a.ID, Compensating: tc.compensating,
			}
			if err := tc.e.lm.AcquireCtx(tc.lockCtx(), tc.txn.info, item, req); err != nil {
				return err
			}
		}
	}
	return nil
}

// lockRow acquires the hierarchy for one row: intention on the table, part
// on the row's partition granule if the table has one, then row on the row.
// A read takes IS/IS/S, an update IX/IX/X, and an insert or delete IX/X/X —
// the exclusive partition lock serializes structural change within the
// partition, the page lock analogue.
func (tc *Ctx) lockRow(table string, pk spi.Key, part, row spi.Mode) error {
	intent := spi.ModeIS
	if row == spi.ModeX {
		intent = spi.ModeIX
	}
	if err := tc.acquire(spi.TableItem(table), intent); err != nil {
		return err
	}
	if item, ok := tc.e.db.partitionOf(table, pk); ok {
		if err := tc.acquire(item, part); err != nil {
			return err
		}
	}
	return tc.acquire(spi.RowItem(table, pk), row)
}

func (tc *Ctx) table(name string) (spi.Table, error) {
	t := tc.e.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("core: no table %q", name)
	}
	return t, nil
}

// recordWrite logs the mutation, saves the undo image, and remembers the
// written items for their D/C marks at step end: the row, and for an insert
// or delete its partition granule.
func (tc *Ctx) recordWrite(t spi.Table, table string, pk spi.Key, before, after spi.Row) {
	tc.writes = append(tc.writes, writeRec{t: t, pk: pk, before: before, after: after})
	tc.e.ensureLogged(tc.txn)
	tc.e.append(tc.txn, wal.Record{
		Type: wal.TWrite, Txn: uint64(tc.txn.info.ID),
		Table: table, PK: pk, Before: before, After: after,
	})
	tc.wroteItems = append(tc.wroteItems, spi.RowItem(table, pk))
	if before == nil || after == nil {
		if part, ok := tc.e.db.partitionOf(table, pk); ok {
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
	return tc.get(t, table, spi.EncodeKey(keyVals...), true)
}

// GetCols is a projecting Get: it copies the columns cols (ordinals of the
// table's schema) of the row under the given key into dst, which must hold
// len(cols) values, and is one statement like Get. When the schema declares
// every one of cols fixed it takes no lock, conventional or assertional, and
// leaves no history record: no transaction writes such a column, or inserts
// or deletes such a row (spi.Column.Fixed), so the read can take part in no
// conflict. Otherwise it locks and records exactly as Get does. At a
// versioned tier it reads as Get does there.
func (tc *Ctx) GetCols(table string, cols []int, dst []spi.Value, keyVals ...spi.Value) error {
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	s := t.Schema()
	if len(dst) < len(cols) {
		return fmt.Errorf("core: GetCols on %s: %d columns into %d values", table, len(cols), len(dst))
	}
	for _, c := range cols {
		if c < 0 || c >= len(s.Columns) {
			return fmt.Errorf("core: GetCols on %s: no column %d", table, c)
		}
	}
	row, err := tc.get(t, table, spi.EncodeKey(keyVals...), !s.AllFixed(cols))
	if err != nil {
		return err
	}
	for i, c := range cols {
		dst[i] = row[c]
	}
	return nil
}

// get reads the row under pk in one statement: at a versioned tier through
// the version chains; at the locked tier under the row hierarchy's IS/IS/S
// with a history record, unless locked is false — a read of fixed columns
// alone (GetCols).
func (tc *Ctx) get(t spi.Table, table string, pk spi.Key, locked bool) (spi.Row, error) {
	if tc.versioned() {
		tc.begin()
		row, err := t.GetAsOf(pk, tc.readCSN)
		tc.end()
		return row, err
	}
	if locked {
		if err := tc.lockRow(table, pk, spi.ModeIS, spi.ModeS); err != nil {
			return nil, err
		}
	}
	tc.begin()
	row, err := t.Get(pk)
	tc.end()
	if locked {
		tc.e.record(tc.txn, table, pk, false)
	}
	return row, err
}

// fixedRows refuses an insert or delete on t when its row set is fixed: a
// lock-free read of its fixed columns (GetCols) relies on no row coming or
// going.
func fixedRows(t spi.Table, op string) error {
	if s := t.Schema(); s.FixedRows() {
		return fmt.Errorf("%w: %s on %s", spi.ErrFixed, op, s.Name)
	}
	return nil
}

// GetMany reads, in one statement, the rows under the given encoded primary
// keys and hands each present row to visit; missing keys are skipped. It is
// the engine's stand-in for a join against a key list (stock-level's). The
// keys must be in ascending order, which is the lock order: batched acquirers
// that lock in key order cannot deadlock against each other. Unsorted keys
// are refused at every tier, before any lock is taken. At the locked tier
// GetMany takes IS on the table, then, key by key, IS on the row's partition
// (if the table is partitioned) and S on the row. On a table whose every
// column is fixed it takes no lock and leaves no history record, as GetCols
// does for fixed columns: no transaction writes, inserts or deletes such a
// row. A visitor error stops the read and is returned.
func (tc *Ctx) GetMany(table string, pks []spi.Key, visit func(spi.Row) error) error {
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	if !slices.IsSorted(pks) {
		return fmt.Errorf("core: GetMany on %s: keys not in ascending order", table)
	}
	var verr error
	if tc.versioned() {
		tc.begin()
		for _, pk := range pks {
			if row, err := t.GetAsOf(pk, tc.readCSN); err == nil {
				if verr = visit(row); verr != nil {
					break
				}
			}
		}
		tc.end()
		return verr
	}
	s := t.Schema()
	locked := len(s.FixedCols) < len(s.Columns)
	if locked {
		if err := tc.acquire(spi.TableItem(table), spi.ModeIS); err != nil {
			return err
		}
		for _, pk := range pks {
			if part, ok := tc.e.db.partitionOf(table, pk); ok {
				if err := tc.acquire(part, spi.ModeIS); err != nil {
					return err
				}
			}
			if err := tc.acquire(spi.RowItem(table, pk), spi.ModeS); err != nil {
				return err
			}
		}
	}
	tc.begin()
	for _, pk := range pks {
		if row, err := t.Get(pk); err == nil {
			if verr = visit(row); verr != nil {
				break
			}
		}
	}
	tc.end()
	if locked {
		for _, pk := range pks {
			tc.e.record(tc.txn, table, pk, false)
		}
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
	if err := fixedRows(t, "claim"); err != nil {
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
		var headPK spi.Key // an encoded key is never empty
		tc.begin()
		t.IndexScan(index, eqVals, func(pk spi.Key, _ spi.Row) bool {
			headPK = pk
			return false
		})
		tc.end()
		if headPK == "" {
			tc.e.record(tc.txn, table, "", false)
			return nil, nil
		}
		if err := tc.acquire(spi.RowItem(table, headPK), spi.ModeX); err != nil {
			return nil, err
		}
		tc.begin()
		old, err := t.Delete(headPK)
		tc.end()
		if err != nil {
			continue // the head went between probe and grant; re-probe
		}
		tc.recordWrite(t, table, headPK, old, nil)
		tc.wroteItems = append(tc.wroteItems, queue)
		return old, nil
	}
}

// Insert adds one or more new rows in one statement: the engine's stand-in
// for a multi-row INSERT (a new-order's lines). The rows must be in strictly
// ascending primary-key order, which is the lock order; anything else is
// refused before any lock is taken. Insert takes IX on the table, then, row by
// row, X on the row's partition (if the table has one; a run of rows in one
// partition locks it once) and X on the row, and only then makes its one
// statement. Each row keeps its own write record, history record and D/C
// marks. A row that cannot go in — its key exists — ends the statement, and
// the rows before it stay written until the step is undone.
//
// The rows belong to the engine from here on: the table, the log record and
// the published version share them, so the body must not change them
// afterwards (build fresh rows per Insert).
func (tc *Ctx) Insert(table string, rows ...spi.Row) error {
	if tc.versioned() {
		return ErrReadOnly
	}
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	if err := fixedRows(t, "insert"); err != nil {
		return err
	}
	s := t.Schema()
	var one [1]spi.Key // a one-row Insert allocates no key list
	pks := one[:0]
	if len(rows) > 1 {
		pks = make([]spi.Key, 0, len(rows))
	}
	for i, row := range rows {
		if err := s.CheckRow(row); err != nil {
			return err
		}
		pk := s.KeyOf(row)
		if i > 0 && pk <= pks[i-1] {
			return fmt.Errorf("core: Insert on %s: keys not in strictly ascending order", table)
		}
		pks = append(pks, pk)
	}
	if len(pks) == 0 {
		return nil
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIX); err != nil {
		return err
	}
	var held spi.Item
	for _, pk := range pks {
		if part, ok := tc.e.db.partitionOf(table, pk); ok && part != held {
			if err := tc.acquire(part, spi.ModeX); err != nil {
				return err
			}
			held = part
		}
		if err := tc.acquire(spi.RowItem(table, pk), spi.ModeX); err != nil {
			return err
		}
	}
	tc.begin()
	defer tc.end()
	for i, row := range rows {
		if err := t.Insert(row); err != nil {
			return err
		}
		tc.recordWrite(t, table, pks[i], nil, row)
	}
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
	if err := fixedRows(t, "delete"); err != nil {
		return err
	}
	pk := spi.EncodeKey(keyVals...)
	if err := tc.lockRow(table, pk, spi.ModeX, spi.ModeX); err != nil {
		return err
	}
	tc.begin()
	old, err := t.Delete(pk)
	tc.end()
	if err != nil {
		return err
	}
	tc.recordWrite(t, table, pk, old, nil)
	return nil
}

// Update applies mutate to a private copy of the row under the given key and
// stores the result: mutate may change its argument in place, but not its
// primary-key columns, and not after it returns. The copy is the one a write
// needs — the table, the step's undo image, the log record and the published
// version then share it. Neither keyVals nor mutate is retained, so a caller
// may build both on its stack.
func (tc *Ctx) Update(table string, keyVals []spi.Value, mutate func(spi.Row) error) error {
	if tc.versioned() {
		return ErrReadOnly
	}
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	pk := spi.EncodeKey(keyVals...)
	if err := tc.lockRow(table, pk, spi.ModeIX, spi.ModeX); err != nil {
		return err
	}
	tc.begin()
	defer tc.end()
	row, err := t.Get(pk)
	if err != nil {
		return err
	}
	row = row.Clone()
	if err := mutate(row); err != nil {
		return err
	}
	before, err := t.Update(pk, row)
	if err != nil {
		return err
	}
	tc.recordWrite(t, table, pk, before, row)
	return nil
}

// visitRows adapts a row visitor to a storage scan's callback: a visitor
// error, ErrStopScan included, ends the scan and is kept in *verr (scanErr
// turns it into the scan's result).
func visitRows(visit func(spi.Row) error, verr *error) func(spi.Key, spi.Row) bool {
	return func(_ spi.Key, row spi.Row) bool {
		if err := visit(row); err != nil {
			*verr = err
			return false
		}
		return true
	}
}

// scanErr is what a scan returns for the visitor error visitRows kept: nil
// for none and for ErrStopScan.
func scanErr(verr error) error {
	if verr == ErrStopScan {
		return nil
	}
	return verr
}

// ScanPartition is ScanPartitions over one partition.
func (tc *Ctx) ScanPartition(table string, partVals []spi.Value, visit func(spi.Row) error) error {
	return tc.ScanPartitions(table, [][]spi.Value{partVals}, visit)
}

// ScanPartitions visits, in one statement, every row of the given partitions:
// partition by partition, each in primary-key-within-partition order. It is
// the engine's stand-in for a join against a list of partitions
// (stock-level's order lines). Each of parts holds one value for every
// partition column, and parts are in strictly ascending order, which is the
// lock order; anything else is refused before any lock is taken, at every
// tier. At the locked tier ScanPartitions takes IS on the table, then S on
// every listed partition, in order, before it reads a row — the shared
// partition lock excludes concurrent structural change, closing the phantom
// window — and leaves one history record per partition. The visitor may
// return ErrStopScan to end the whole read early; any other visitor error
// stops it and is returned.
func (tc *Ctx) ScanPartitions(table string, parts [][]spi.Value, visit func(spi.Row) error) error {
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	n, err := tc.e.db.checkParts(table, parts)
	if err != nil {
		return err
	}
	var verr error
	scan := visitRows(visit, &verr)
	if tc.versioned() {
		tc.begin()
		for i := 0; i < len(parts) && err == nil && verr == nil; i++ {
			err = t.IndexScanAsOf(PartIndex, parts[i], tc.readCSN, scan)
		}
		tc.end()
		return cmp.Or(err, scanErr(verr))
	}
	keys, err := tc.lockParts(table, n, parts)
	if err != nil {
		return err
	}
	tc.begin()
	for i := 0; i < len(parts) && err == nil && verr == nil; i++ {
		err = t.IndexScan(PartIndex, parts[i], scan)
	}
	tc.end()
	for k, rest := nextKey(keys, n); k != ""; k, rest = nextKey(rest, n) {
		tc.e.record(tc.txn, table, k, false)
	}
	return cmp.Or(err, scanErr(verr))
}

// lockParts takes IS on the table, then S on each of parts in order, and
// returns their keys, back to back in one buffer (partKeys). It is its own
// function so that ScanPartitions' frame, which stays on the stack under
// every row its visitor gets, holds none of this.
func (tc *Ctx) lockParts(table string, n int, parts [][]spi.Value) (spi.Key, error) {
	if err := tc.acquire(spi.TableItem(table), spi.ModeIS); err != nil {
		return "", err
	}
	keys := partKeys(parts)
	for k, rest := nextKey(keys, n); k != ""; k, rest = nextKey(rest, n) {
		if err := tc.acquire(spi.PartitionItem(table, k), spi.ModeS); err != nil {
			return "", err
		}
	}
	return keys, nil
}

// partKeys encodes the partition key of each of parts into one buffer, back
// to back: one allocation for any number of partitions.
func partKeys(parts [][]spi.Value) spi.Key {
	n := 0
	for _, p := range parts {
		for _, v := range p {
			n += spi.KeyLen(v)
		}
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		for _, v := range p {
			spi.AppendKeyVal(&b, v)
		}
	}
	return spi.Key(b.String())
}

// nextKey splits the first key, of n values, off keys: "" when none is left.
func nextKey(keys spi.Key, n int) (first, rest spi.Key) {
	first = spi.KeyPrefix(keys, n)
	return first, keys[len(first):]
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
	if _, err := tc.e.db.checkParts(table, [][]spi.Value{partVals}); err != nil {
		return err
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIX); err != nil {
		return err
	}
	part := spi.PartitionItem(table, spi.EncodeKey(partVals...))
	if err := tc.acquire(part, spi.ModeX); err != nil {
		return err
	}
	type change struct {
		pk    spi.Key
		after spi.Row // nil: delete
	}
	var changes []change
	var merr error
	tc.begin()
	defer tc.end()
	err = t.IndexScan(PartIndex, partVals, func(pk spi.Key, row spi.Row) bool {
		after, err := mutate(row.Clone())
		if err == ErrDeleteRow {
			if merr = fixedRows(t, "delete"); merr != nil {
				return false
			}
			changes = append(changes, change{pk, nil})
			return true
		}
		if err != nil {
			if err != ErrStopScan {
				merr = err
			}
			return false
		}
		if after != nil {
			changes = append(changes, change{pk, after})
		}
		return true
	})
	if err = cmp.Or(err, merr); err != nil {
		return err
	}
	for _, ch := range changes {
		var old spi.Row
		if ch.after == nil {
			old, err = t.Delete(ch.pk)
		} else {
			old, err = t.Update(ch.pk, ch.after)
		}
		if err != nil {
			return err
		}
		tc.recordWrite(t, table, ch.pk, old, ch.after)
	}
	return nil
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
		found := foundRows.Get().(*[]spi.Row)
		defer putFound(&foundRows, found)
		tc.begin()
		err = t.IndexScanAsOf(index, eqVals, tc.readCSN, func(_ spi.Key, row spi.Row) bool {
			*found = append(*found, row)
			return true
		})
		tc.end()
		return slices.Clone(*found), err
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeIS); err != nil {
		return nil, err
	}
	found := foundKeys.Get().(*[]spi.Key)
	defer putFound(&foundKeys, found)
	tc.begin()
	err = t.IndexScan(index, eqVals, func(pk spi.Key, _ spi.Row) bool {
		*found = append(*found, pk)
		return true
	})
	tc.end()
	if err != nil {
		return nil, err
	}
	rows := make([]spi.Row, 0, len(*found))
	for _, pk := range *found {
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

// foundRows and foundKeys recycle the buffers LookupByIndex's index scan
// gathers its matches in — the rows at the snapshot tier, the keys it then
// locks at the locked tier — so that what a lookup keeps is allocated once,
// at its size, however many rows match.
var (
	foundRows = sync.Pool{New: func() any { return new([]spi.Row) }}
	foundKeys = sync.Pool{New: func() any { return new([]spi.Key) }}
)

// putFound empties a buffer, dropping its references, and returns it to its
// pool.
func putFound[T any](p *sync.Pool, buf *[]T) {
	clear(*buf)
	*buf = (*buf)[:0]
	p.Put(buf)
}

// Scan visits every row of the table under a shared table lock.
func (tc *Ctx) Scan(table string, visit func(spi.Row) error) error {
	t, err := tc.table(table)
	if err != nil {
		return err
	}
	var verr error
	if tc.versioned() {
		tc.begin()
		t.ScanAsOf(tc.readCSN, visitRows(visit, &verr))
		tc.end()
		return scanErr(verr)
	}
	if err := tc.acquire(spi.TableItem(table), spi.ModeS); err != nil {
		return err
	}
	tc.begin()
	t.Scan(visitRows(visit, &verr))
	tc.end()
	tc.e.record(tc.txn, table, "", false)
	return scanErr(verr)
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
		w := &tc.writes[i]
		w.t.Apply(w.pk, w.before)
	}
	tc.writes = tc.writes[:0]
	tc.wroteItems = tc.wroteItems[:0]
}
