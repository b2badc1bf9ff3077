package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"accdb/internal/fault"
	"accdb/internal/interference"
	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

func init() {
	fault.Declare("core.commit.force.crash", fault.Crash,
		"process dies at the commit record: the final step ran but neither it nor the commit is in the log")
	fault.Declare("core.comp.force.crash", fault.Crash,
		"process dies at the compensation-done record: recovery must compensate again")
	fault.Declare("core.retire.crash", fault.Crash,
		"process dies after a step boundary gave up its locks and published its writes, before the record was durable")
}

// crashPoint consults an engine fault point; a fired Crash freezes the log,
// so everything appended from here on is lost to recovery.
func (e *Engine) crashPoint(name string) {
	if fault.Point(name).Effect == fault.Crash {
		e.log.Crash()
	}
}

// Request is one transaction to execute: what Engine.Exec, partition.Set.Exec
// and the network server's Runner all take.
type Request struct {
	// Type is the resolved transaction type (the server resolves it from the
	// wire frame without allocating); when nil, Name is looked up.
	Type *TxnType
	Name string
	// Args is the argument record; it doubles as the work area.
	Args any
	// Tier is the consistency tier. Zero is TierLocked: the full scheduler,
	// and the only tier that permits writes (see ReadTier).
	Tier ReadTier
	// Span is the caller's latency-anatomy span (DESIGN.md §13). With Span
	// nil and an Anatomy attached the engine owns a span for the call, so
	// in-process harnesses get the same per-stage histograms and flight
	// recorder as the network path.
	Span *trace.Span
}

// Exec executes one transaction under the engine's scheduler mode: the one
// entry point every other way of running a transaction wraps. It returns nil
// on commit, a *CompensatedError or ErrUserAbort-wrapping error on rollback,
// and other errors on failure. A Request.Tier that names no tier is refused
// before anything runs.
//
// Durability is a property of the reply, not of the step (DESIGN.md §10):
// end-of-step, commit and compensation-done records are appended, the step's
// writes published and its locks given up at the append, and Exec waits
// once, just before it returns a commit or a compensated rollback, for the
// log to be durable through the last record that outcome depends on — its
// own, or that of a not-yet-durable writer it read from. If the log failed
// before that, Exec returns ErrLogFailed and the engine refuses further
// transactions. A transaction that wrote nothing logs nothing.
//
// Cancellation and deadlines propagate into lock waits: a cancelled ctx
// aborts an in-progress wait, and the transaction rolls back — by
// compensation (§3.4) if any step had completed, by in-place undo otherwise.
// Compensation itself always runs to completion regardless of ctx; its
// effects must not be half-applied.
func (e *Engine) Exec(ctx context.Context, req Request) error {
	tt := req.Type
	if tt == nil {
		if tt = e.Type(req.Name); tt == nil {
			return fmt.Errorf("%w: %q", ErrUnknownTxnType, req.Name)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ValidTier(uint8(req.Tier)) {
		return fmt.Errorf("core: unknown read tier %d", req.Tier)
	}
	if req.Tier == TierLocked && e.log.Crashed() {
		// Fail-stop: nothing written from here on could ever be acknowledged.
		return e.logFailed()
	}
	sp := req.Span
	owned := sp == nil && e.anatomy != nil
	if owned {
		// Engine-owned span: the whole call is the engine phase; there are
		// no wire stages around it to subtract.
		sp = e.anatomy.Start(0, time.Time{})
		sp.EnterEngine()
	}
	var err error
	switch {
	case req.Tier != TierLocked:
		err = e.runRead(ctx, tt, req.Args, sp)
	case e.opt.Mode == ModeBaseline:
		err = e.runDecomposed(ctx, tt.undecomposed(), req.Args, sp)
	default:
		err = e.runDecomposed(ctx, tt, req.Args, sp)
	}
	if owned {
		sp.ExitEngine()
		sp.SetStatus(OutcomeOf(err).String())
		sp.Finish()
	}
	return err
}

// Run is Exec of the named type under context.Background().
func (e *Engine) Run(name string, args any) error {
	return e.Exec(context.Background(), Request{Name: name, Args: args})
}

// RunReadContext is Exec of the named type at a read tier. It survives the
// collapse of the Run* family only because bench/probe_core.go, which this
// repository's benchmark contract freezes, calls it; new code calls Exec.
func (e *Engine) RunReadContext(ctx context.Context, name string, args any, tier ReadTier) error {
	return e.Exec(ctx, Request{Name: name, Args: args, Tier: tier})
}

// RunLegacy executes an undecomposed (ad-hoc) transaction: a single
// strict-2PL unit whose lock requests carry the legacy tags, so under the
// ACC it is completely isolated from intermediate states of multi-step
// transactions (§3.3 end). It builds a one-step type and folds into Exec, so
// retry and close semantics are identical to every other transaction.
func (e *Engine) RunLegacy(name string, body func(tc *Ctx) error) error {
	return e.Exec(context.Background(), Request{Type: &TxnType{
		Name: name,
		ID:   interference.LegacyTxn,
		Steps: []Step{{
			Name: name, Type: interference.LegacyStep, Body: body,
		}},
	}})
}

// runDecomposed executes tt step by step: the ACC scheduler, and under
// ModeBaseline the same loop over tt's undecomposed twin. A scheduling abort
// before any step has completed restarts the whole transaction (nothing was
// exposed, so a restart is free); once a step has completed, rollback goes
// through compensation instead.
func (e *Engine) runDecomposed(ctx context.Context, tt *TxnType, args any, sp *trace.Span) error {
	for attempt := 0; ; attempt++ {
		err := e.runDecomposedOnce(ctx, tt, args, sp)
		// Retryable covers exactly the clean scheduling aborts (nothing
		// exposed, everything undone in place): a compensated rollback is a
		// final outcome, a failed compensation is never retried, and a
		// cancelled caller gets its cancellation back, not another attempt.
		if !Retryable(err) || ctx.Err() != nil {
			return err
		}
		if attempt == maxTxnRetries {
			// Callers can classify both the exhaustion and the scheduling
			// cause (deadlock vs timeout).
			return fmt.Errorf("core: %s: %w: %w", tt.Name, ErrRetriesExhausted, err)
		}
		e.txnRetries.Add(1)
		retryBackoff(attempt, e.nextTxn.Load())
	}
}

func (e *Engine) runDecomposedOnce(ctx context.Context, tt *TxnType, args any, sp *trace.Span) error {
	txn := e.beginTxn(ctx, tt, args, sp)
	start := time.Now()
	for j := range txn.steps {
		if err := e.runStep(txn, j); err != nil {
			return e.rollback(txn, j, err)
		}
	}
	return e.commit(txn, txn.pending, start)
}

// beginTxn builds the per-attempt transaction record, records its begin in
// the span, and prepares — but does not append — its begin record.
func (e *Engine) beginTxn(ctx context.Context, tt *TxnType, args any, sp *trace.Span) *txnState {
	txn := &txnState{
		tt:    tt,
		args:  args,
		ctx:   ctx,
		steps: tt.stepsFor(args),
		info:  tt.lockTxn(spi.TxnID(e.nextTxn.Add(1))),
		span:  sp,
	}
	// The lock manager charges this transaction's blocked time to the span's
	// per-mode wait stages; on a retry the later attempt's identity wins and
	// waits keep accumulating, which is the end-to-end truth.
	txn.info.Span = sp
	sp.SetTxn(uint64(txn.info.ID), tt.Name)
	txn.span.Event(trace.KindTxnBegin, "", tt.Name, 0)
	txn.begin = wal.Record{Type: wal.TBegin, Txn: uint64(txn.info.ID), TxnType: tt.Name}
	if tag := shotTagFrom(ctx); tag.Group != nil {
		// A shot of a multi-shot global transaction: stamp the begin record
		// so partition recovery can resolve this shot's fate, and join the
		// global's group before the first lock request. A retried attempt
		// re-stamps with its fresh id; the latest attempt is the live one.
		txn.begin.Global, txn.begin.Shot = tag.Group.ID, tag.Shot
		txn.info.Group = tag.Group
	}
	return txn
}

// append writes rec to the log on txn's behalf, charging the append to the
// span's wal_append stage, and remembers where the record ends: the log must
// be durable through there before the transaction's outcome is acknowledged.
func (e *Engine) append(txn *txnState, rec wal.Record) {
	if txn.span == nil {
		txn.lastLSN = e.log.Append(rec)
		return
	}
	start := time.Now()
	txn.lastLSN = e.log.Append(rec)
	txn.span.Add(trace.StageWALAppend, int64(time.Since(start)))
}

// openUnit notes the record that opens the step or compensation about to
// run. A transaction already in the log appends it at once; otherwise it is
// held back until the unit's first write (ensureLogged).
func (e *Engine) openUnit(txn *txnState, rec wal.Record) {
	txn.unit = rec
	if txn.logged {
		e.append(txn, rec)
	}
}

// ensureLogged puts the transaction into the log — its begin record and the
// record opening the current unit — before its first write record. A
// transaction that never writes never gets here, and appends nothing.
func (e *Engine) ensureLogged(txn *txnState) {
	if txn.logged {
		return
	}
	txn.logged = true
	e.append(txn, txn.begin)
	e.append(txn, txn.unit)
}

// appendBoundary writes the record that closes a unit — end-of-step, commit,
// compensation-done — charging its preparation (building the record, saving
// the work area, updating the log tail) as one unit of server CPU: the ACC
// overhead §5 measures ("these actions represent overhead and are included
// in the measured results"). The paper also forces the record here; this
// engine does not (settle). withArea saves the work area in the record.
func (e *Engine) appendBoundary(txn *txnState, rec wal.Record, withArea bool) {
	if !txn.logged {
		return // nothing written, nothing to close
	}
	switch rec.Type {
	case wal.TCommit:
		e.crashPoint("core.commit.force.crash")
	case wal.TCompDone:
		e.crashPoint("core.comp.force.crash")
	}
	e.env.BeginStatement()
	e.env.EndStatement()
	if withArea && txn.tt.AppendArgs != nil {
		// The work area is serialized into a pooled scratch. Append copies it
		// into the log synchronously, so the buffer is free again as soon as
		// the record is in.
		buf := areaPool.Get().(*[]byte)
		defer areaPool.Put(buf)
		*buf = txn.tt.AppendArgs((*buf)[:0], txn.args)
		rec.WorkArea = *buf
	}
	e.append(txn, rec)
}

// retire gives up the transaction's conventional locks at a unit boundary:
// the boundary's record is appended, not yet durable, so write locks stay
// behind as retired grants a later reader takes its durability dependency
// from (spi.LockService.Retire).
func (e *Engine) retire(txn *txnState, final bool) {
	durable := e.log.Durable()
	e.lm.Retire(txn.info, uint64(txn.lastLSN), uint64(durable), final)
	if txn.lastLSN > durable {
		e.crashPoint("core.retire.crash")
	}
}

// settle is the transaction's one durability wait, taken after its locks
// were given up and just before its outcome is acknowledged: the log must be
// durable through its own last record and through the record of every
// retired grant it was granted over. Its retired grants are dropped when the
// wait returns.
func (e *Engine) settle(txn *txnState) error {
	need := txn.lastLSN
	if dep := wal.LSN(txn.info.DepLSN()); dep > need {
		need = dep
	}
	err := e.awaitDurable(need, txn.span)
	if txn.logged {
		e.lm.ReleaseAll(txn.info) // an unlogged transaction retired nothing
	}
	return err
}

// awaitDurable returns once the log is durable through need, charging the
// wait — group-commit window, follower ride-along, the sync itself — to the
// span's group_commit stage. The common read-only case is one atomic load.
// A log that failed or froze first yields ErrLogFailed.
func (e *Engine) awaitDurable(need wal.LSN, sp *trace.Span) error {
	if need <= e.log.Durable() {
		return nil
	}
	if sp == nil {
		e.log.ForceTo(need)
	} else {
		start := time.Now()
		e.log.ForceTo(need)
		d := int64(time.Since(start))
		sp.Add(trace.StageGroupCommit, d)
		sp.Event(trace.KindWALForce, "", "", d)
	}
	if need > e.log.Durable() {
		return e.logFailed()
	}
	return nil
}

// commit is the one commit tail, the baseline's included: the commit record
// (which is also the final step's end-of-step record) is appended, the final
// writes are published, every lock is given up, and only then does the
// request wait for the disk.
func (e *Engine) commit(txn *txnState, writes []writeRec, start time.Time) error {
	// A committed remote shot can still be compensated by its coordinator,
	// from the work area its commit record saved.
	e.appendBoundary(txn, wal.Record{Type: wal.TCommit, Txn: uint64(txn.info.ID)}, txn.begin.Shot > 0)
	e.publishWrites(writes, txn.lastLSN)
	e.retire(txn, true)
	if err := e.settle(txn); err != nil {
		return err
	}
	if txn.logged {
		e.commits.Add(1)
	} else {
		e.readOnly.Add(1)
	}
	txn.span.Event(trace.KindTxnCommit, "", txn.tt.Name, int64(time.Since(start)))
	e.recordCommit(txn)
	return nil
}

// retryBackoff sleeps before a transaction restart: exponential in the
// attempt number with a cap, plus jitter derived from the transaction
// identity — two victims of the same deadlock must not re-collide in
// lockstep forever, and repeat offenders must yield the contended items for
// progressively longer.
func retryBackoff(attempt int, salt uint64) {
	shift := attempt
	if shift > 7 {
		shift = 7 // cap the exponential at 12.8ms base
	}
	d := (100 * time.Microsecond) << shift
	d += time.Duration(salt%17) * 53 * time.Microsecond
	time.Sleep(d)
}

// runStep executes forward step j with the deadlock-retry policy: a victim
// step is undone, its conventional locks released, and retried; when the
// deadlock recurs beyond the budget the error escalates to the caller, which
// compensates (§3.4). The baseline retries no step: its one unit is the
// whole transaction, which restarts instead.
func (e *Engine) runStep(txn *txnState, j int) error {
	for attempt := 0; ; attempt++ {
		// A cancelled caller stops making forward progress at the next step
		// (or retry) boundary; the rollback path decides between plain abort
		// and compensation.
		if err := txn.ctx.Err(); err != nil {
			return err
		}
		e.openUnit(txn, wal.Record{Type: wal.TStepBegin, Txn: uint64(txn.info.ID), Step: int32(j)})
		txn.span.Event(trace.KindStepBegin, "", txn.steps[j].Name, 0)
		stepStart := time.Now()
		tc := e.stepCtx(txn, j, txn.steps[j].Type, activeAssertions(txn.steps, j), false)
		err := txn.steps[j].Body(tc)
		if err == nil {
			e.finishStep(txn, tc, j)
			txn.span.Event(trace.KindStepEnd, "", txn.steps[j].Name, int64(time.Since(stepStart)))
			return nil
		}
		tc.undo()
		e.lm.ReleaseStepAbort(txn.info)
		if Retryable(err) && attempt < maxStepRetries && e.opt.Mode != ModeBaseline {
			e.stepRetries.Add(1)
			txn.span.Event(trace.KindStepRetry, "", txn.steps[j].Name, 0)
			continue
		}
		return err
	}
}

// finishStep performs the end-of-step processing: one D/C mark on each
// written item, the end-of-step record with the saved work area,
// publication of the step's writes, breakpoint advance, and release of the
// step's conventional locks and of the completed precondition's assertional
// locks — all at the append; nothing here waits for the disk. The final step
// has no end-of-step record of its own: it skips exposure and keeps its
// writes and locks for commit, whose record closes it.
func (e *Engine) finishStep(txn *txnState, tc *Ctx, j int) {
	if j == len(txn.steps)-1 {
		txn.pending = tc.writes
		txn.info.AdvanceStep()
		return
	}
	for _, item := range tc.wroteItems {
		e.lm.AttachExposure(txn.info, item)
	}
	e.appendBoundary(txn, wal.Record{Type: wal.TEndOfStep, Txn: uint64(txn.info.ID), Step: int32(j)}, true)
	// The end-of-step append is this step's exposure point (§2): publish its
	// writes to the version chains under one CSN before the conventional
	// locks go, so versioned readers see the same interstep states locked
	// readers are about to.
	e.publishWrites(tc.writes, txn.lastLSN)
	txn.info.AdvanceStep()
	e.retire(txn, false)
	e.releaseAssertions(txn, txn.steps[j].Pre)
}

// areaPool recycles work-area encode buffers across end-of-step records.
var areaPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<10)
	return &b
}}

// releaseAssertions drops the assertional locks of the given (now
// discharged) precondition conjuncts.
func (e *Engine) releaseAssertions(txn *txnState, pre []*Assertion) {
	for _, a := range pre {
		// The next step may re-declare the same conjunct; keep it then.
		next := txn.info.CompletedSteps()
		if next < len(txn.steps) {
			keep := false
			for _, n := range activeAssertions(txn.steps, next) {
				if n.ID == a.ID {
					keep = true
					break
				}
			}
			if keep {
				continue
			}
		}
		e.lm.ReleaseAssertion(txn.info, a.ID)
	}
}

// rollback handles a failed forward step j: if no step has completed the
// transaction simply aborts; otherwise the compensating step semantically
// undoes the completed prefix (§3.4).
func (e *Engine) rollback(txn *txnState, j int, cause error) error {
	completed := txn.info.CompletedSteps()
	if completed == 0 {
		// Nothing was exposed and nothing retired: an abort promises nothing,
		// so it waits for nothing.
		if txn.logged {
			e.append(txn, wal.Record{Type: wal.TAbort, Txn: uint64(txn.info.ID)})
		}
		e.lm.ReleaseAll(txn.info)
		if Retryable(cause) {
			txn.span.Event(trace.KindTxnAbort, "scheduling", txn.tt.Name, 0)
			return cause // nothing exposed: the caller restarts the transaction
		}
		if canceled(cause) {
			// The caller went away before anything was exposed: the undo
			// already happened in place, so this is neither a user abort nor
			// a scheduling abort — just the cancellation, propagated.
			txn.span.Event(trace.KindTxnAbort, "canceled", txn.tt.Name, 0)
			return fmt.Errorf("core: %s canceled: %w", txn.tt.Name, cause)
		}
		e.userAborts.Add(1)
		txn.span.Event(trace.KindTxnAbort, "user", txn.tt.Name, 0)
		return fmt.Errorf("core: %s aborted: %w", txn.tt.Name, cause)
	}
	if err := e.compensate(txn, completed); err != nil {
		return err
	}
	return &CompensatedError{Txn: txn.tt.Name, Cause: cause}
}

// compensate runs the compensating step for the completed prefix. Its lock
// requests carry the Compensating flag, so it is never a deadlock victim;
// if it is aborted from outside it retries until it succeeds, which the
// reservation locks guarantee is possible.
func (e *Engine) compensate(txn *txnState, completed int) error {
	tt := txn.tt
	if tt.Comp == nil {
		return fmt.Errorf("core: %s has completed steps but no compensation", tt.Name)
	}
	for attempt := 0; ; attempt++ {
		// Step carries the number of completed forward steps being undone.
		e.openUnit(txn, wal.Record{Type: wal.TCompBegin, Txn: uint64(txn.info.ID), Step: int32(completed)})
		txn.span.Event(trace.KindCompBegin, "", tt.Name, 0)
		compStart := time.Now()
		tc := e.stepCtx(txn, completed, tt.Comp.Type, nil, true)
		err := tt.Comp.Body(tc, completed)
		if err == nil {
			e.appendBoundary(txn, wal.Record{Type: wal.TCompDone, Txn: uint64(txn.info.ID)}, false)
			e.publishWrites(tc.writes, txn.lastLSN)
			e.retire(txn, true)
			// The rollback is acknowledged like a commit: only once durable.
			if err := e.settle(txn); err != nil {
				return err
			}
			e.compensations.Add(1)
			txn.span.Event(trace.KindCompDone, "", tt.Name, int64(time.Since(compStart)))
			e.recordCommit(txn) // compensation publishes a (compensated) outcome
			return nil
		}
		tc.undo()
		e.lm.ReleaseStepAbort(txn.info)
		// The reservation locks guarantee compensation can always make
		// progress, so scheduling aborts are retried persistently (with a
		// short backoff to break convoys); a non-retryable error is a
		// programming error in the transaction declaration.
		if Retryable(err) && attempt < 100 {
			e.stepRetries.Add(1)
			// Jitter by transaction identity so two compensations that
			// victimize each other cannot retry in lockstep forever.
			jitter := time.Duration(uint64(txn.info.ID)%13) * 37 * time.Microsecond
			time.Sleep(time.Duration(attempt+1)*200*time.Microsecond + jitter)
			continue
		}
		// Earlier steps' retired grants outlive their records' wait even on
		// this path; everything else the transaction holds goes after it. A
		// log failure on top of this one is not reported here: the next Exec
		// refuses with it.
		_ = e.settle(txn)
		e.lm.ReleaseAll(txn.info)
		e.compFailures.Add(1)
		return &CompensationFailedError{Txn: tt.Name, Cause: err}
	}
}
