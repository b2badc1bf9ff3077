package partition

import (
	"context"
	"encoding/binary"
	"fmt"

	"accdb/internal/core"
	"accdb/internal/fault"
	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

// The multi-shot commit protocol (DESIGN.md §16). A cross-partition
// transaction with home partition h and remote shots 1..k runs as:
//
//  1. Force a TCoordBegin decision record — global id, home transaction
//     type, encoded shot plan — into h's WAL. From here the global
//     transaction is recoverable from h's log alone.
//  2. Run the home transaction on h. Its hook step (reached while the home
//     transaction holds its exposure marks and reservations) runs each
//     remote shot in plan order as an ordinary local transaction on its
//     partition, stamped (global, i) in that partition's begin record. Each
//     shot's Exec returns only once its commit is durable in its own
//     partition's log, before the next shot starts — the engines force
//     nothing at step boundaries, but log order is per log, so these
//     cross-log edges stay waits. An advisory TCoordShot lands in h's log
//     after each.
//  3. The home transaction commits last. Its commit, acknowledged only once
//     durable, is the global commit point: home committed ⇒ every remote
//     shot durably committed.
//     An advisory TCoordCommit closes the decision record.
//  4. If anything fails after shots committed — the home transaction
//     aborted or was compensated, a later shot aborted, a deadlock victim
//     exhausted its retries — the coordinator runs each committed shot's
//     compensating undo in reverse order (§3.4 lifted across partitions),
//     then forces TCoordAbort. The undo shots are stamped (global, -i).
//
// Crash recovery (recover.go) replays open decision records: a home-committed
// global is driven forward (defensively — the invariant says its shots
// already committed), anything else is rolled back by the same undo path
// using the work areas the shots' own commit records preserved.

// Coordinator fault points, enumerated by the crash matrix alongside the
// wal/core points.
const (
	fpCoordBegin  = "partition.coord.begin.crash"
	fpCoordShot   = "partition.coord.shot.crash"
	fpCoordCommit = "partition.coord.commit.crash"
	fpCoordUndo   = "partition.coord.undo.crash"
)

func init() {
	fault.Declare(fpCoordBegin, fault.Crash,
		"crash after the coordinator forced its decision record, before any shot ran")
	fault.Declare(fpCoordShot, fault.Crash,
		"crash between shots of a cross-partition transaction, after a remote shot committed")
	fault.Declare(fpCoordCommit, fault.Crash,
		"crash after the home transaction committed, before the advisory commit record")
	fault.Declare(fpCoordUndo, fault.Crash,
		"crash mid-compensation, after an undo shot committed but before the abort record")
}

// crashPoint consults a coordinator fault point; a fired Crash freezes every
// partition's log (the whole process "dies", not one partition) and lets
// execution continue — appends after the freeze are non-durable, exactly the
// prefix a kill would leave.
func (s *Set) crashPoint(name string) {
	if fault.Point(name).Effect == fault.Crash {
		for _, e := range s.engines {
			e.Log().Crash()
		}
	}
}

// Hook runs the pending remote shots of the in-flight cross-partition
// transaction. The home transaction type's hook step pulls it out of the
// step context (HookFrom) and invokes it while the home transaction holds
// its marks; a non-nil error aborts the home transaction, which rolls the
// global transaction back.
type Hook func() error

type hookKey struct{}

// WithHook attaches a shot hook to a context.
func WithHook(ctx context.Context, h Hook) context.Context {
	return context.WithValue(ctx, hookKey{}, h)
}

// HookFrom extracts the shot hook, if any. A home transaction type's hook
// step treats absence as "no remote work" and succeeds immediately, so the
// same type definition runs unchanged on a single engine.
func HookFrom(ctx context.Context) (Hook, bool) {
	h, ok := ctx.Value(hookKey{}).(Hook)
	return h, ok
}

// DeadlockError is the cause a global's context is cancelled with when the
// lock service dooms it as the victim of a cycle that crosses partitions:
// the error Exec returns for that global wraps it. It is a context.Canceled.
type DeadlockError struct {
	Global uint64
	// Cycle is the waits-for cycle, g<global id> for a member of a global
	// transaction and T<local id> for a local one: "g3->T17->g5->g3".
	Cycle string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("partition: global %d doomed by deadlock cycle %s", e.Global, e.Cycle)
}

// Is makes a doomed global's error a context.Canceled: its work stopped
// because its context was cancelled.
func (e *DeadlockError) Is(target error) bool { return target == context.Canceled }

// runCross executes one cross-partition transaction through the multi-shot
// protocol above.
func (s *Set) runCross(ctx context.Context, tt *core.TxnType, args any, home int, shots []Shot, sp *trace.Span) error {
	for _, sh := range shots {
		if sh.Partition < 0 || sh.Partition >= len(s.engines) {
			return fmt.Errorf("partition: %s shot %q targets partition %d of %d",
				tt.Name, sh.Type, sh.Partition, len(s.engines))
		}
		if sh.Partition == home {
			return fmt.Errorf("partition: %s shot %q targets its own home partition %d", tt.Name, sh.Type, home)
		}
	}
	plan, err := s.encodePlan(shots)
	if err != nil {
		return fmt.Errorf("partition: encoding %s shot plan: %w", tt.Name, err)
	}

	g := s.nextGlobal.Add(1)
	s.crossStarted.Add(1)
	homeEng := s.engines[home]
	homeLog := homeEng.Log() // never nil: an engine without a disk log keeps a memory one

	// 1. The decision record. Forced: after this the global transaction
	// exists durably and recovery owns its fate.
	homeLog.AppendForce(wal.Record{Type: wal.TCoordBegin, Txn: g, TxnType: tt.Name, WorkArea: plan})
	if homeLog.Crashed() {
		// The home log froze (a simulated crash) and the force above may have
		// been silently absorbed. Running shots now could durably commit them
		// on healthy partitions with no decision record anywhere — orphans no
		// recovery pass would find. Crash state is sticky, so a clean check
		// here proves the record is durable.
		return fmt.Errorf("partition: global %d: %w: home log froze before the decision record was durable", g, core.ErrLogFailed)
	}
	s.crashPoint(fpCoordBegin)

	// The group is the global's identity in every partition's lock table,
	// and its doom the deadlock detector's lever: a cancelled context stops
	// the engines' retry loops (they check ctx between attempts), which
	// aborting the victim's current lock wait alone would not. The cycle is
	// the cancellation's cause, so the caller's error names it.
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	grp := spi.NewGroup(g, func(cycle string) {
		s.crossDeadlocks.Add(1)
		cancel(&DeadlockError{Global: g, Cycle: cycle})
	})

	// done survives home-transaction retries: a deadlock-victim home attempt
	// reruns its hook step, which must continue from the first uncommitted
	// shot, not re-execute committed ones.
	done := make([]bool, len(shots))
	hook := func() error {
		for i, sh := range shots {
			if done[i] {
				continue
			}
			if err := s.runShot(cctx, grp, int32(i+1), sh); err != nil {
				return err
			}
			done[i] = true
			homeLog.Append(wal.Record{Type: wal.TCoordShot, Txn: g, Step: int32(i + 1)})
			s.crashPoint(fpCoordShot)
		}
		return nil
	}

	// 2-3. The home transaction, hook in context, commits last.
	hctx := core.WithShotTag(WithHook(cctx, hook), core.ShotTag{Group: grp})
	err = homeEng.Exec(hctx, core.Request{Type: tt, Args: args, Span: sp})
	if err == nil {
		s.crashPoint(fpCoordCommit)
		homeLog.Append(wal.Record{Type: wal.TCoordCommit, Txn: g})
		s.crossCommitted.Add(1)
		return nil
	}
	if cause := context.Cause(cctx); cause != nil && cause != context.Cause(ctx) {
		err = fmt.Errorf("%w: %w", cause, err)
	}

	// 4. Rollback: the home transaction's own effects are already gone
	// (aborted or compensated by its engine); reverse the committed shots.
	for i := len(shots) - 1; i >= 0; i-- {
		if !done[i] {
			continue
		}
		if uerr := s.undoShot(grp, int32(i+1), shots[i], shots[i].Args); uerr != nil {
			return fmt.Errorf("partition: global %d rollback: undo of shot %d: %w (cause: %v)", g, i+1, uerr, err)
		}
		s.crashPoint(fpCoordUndo)
	}
	// Forced only after every undo is durable: recovery must not see an
	// aborted decision record whose undos still need running.
	homeLog.AppendForce(wal.Record{Type: wal.TCoordAbort, Txn: g})
	s.crossAborted.Add(1)
	return err
}

// runShot executes one remote shot as a local transaction on its partition.
// The shot's Exec returns only once its commit record is durable in its
// partition's log, so plan order doubles as durability order.
func (s *Set) runShot(ctx context.Context, grp *spi.Group, idx int32, sh Shot) error {
	sctx := core.WithShotTag(ctx, core.ShotTag{Group: grp, Shot: idx})
	if err := s.engines[sh.Partition].Exec(sctx, core.Request{Name: sh.Type, Args: sh.Args}); err != nil {
		return fmt.Errorf("shot %d (%s on partition %d): %w", idx, sh.Type, sh.Partition, err)
	}
	s.shotsRun.Add(1)
	return nil
}

// undoShot runs the compensating undo of committed shot sh on the partition
// the plan ran it on, with args the shot's work area — the live record at run
// time, the one its commit record preserved at recovery. It runs under
// a fresh background context — the global transaction's own context is
// typically already cancelled (deadlock doom) or failed, and compensation,
// like the engine's own §3.4 executor, must proceed regardless. Retries are
// persistent: an undo shot only touches items the forward shot reserved, so
// transient scheduling aborts are the only failures expected. From its first
// undo shot on the group is marked undoing: §3.4 lifted across partitions, a
// compensating shot is no deadlock victim while forward work can be.
func (s *Set) undoShot(grp *spi.Group, idx int32, sh Shot, args any) error {
	spec, ok := s.undoSpec(sh.Type)
	if !ok {
		return fmt.Errorf("partition: no undo registered for shot type %q", sh.Type)
	}
	if spec.Args != nil {
		args = spec.Args(args)
	}
	grp.Undoing.Store(true)
	uctx := core.WithShotTag(context.Background(), core.ShotTag{Group: grp, Shot: -idx})
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		err = s.engines[sh.Partition].Exec(uctx, core.Request{Name: spec.Type, Args: args})
		if err == nil || !core.Retryable(err) {
			break
		}
	}
	if err != nil {
		return err
	}
	s.shotUndos.Add(1)
	return nil
}

// encodePlan serializes the shot plan into a TCoordBegin work area:
// uvarint shot count, then per shot uvarint partition, length-prefixed type
// name, length-prefixed encoded arguments. Shot types must declare
// AppendArgs/DecodeArgs (the same requirement the engine's own crash
// compensation imposes on multi-step types).
func (s *Set) encodePlan(shots []Shot) ([]byte, error) {
	buf := binary.AppendUvarint(nil, uint64(len(shots)))
	for _, sh := range shots {
		tt := s.engines[0].Type(sh.Type)
		if tt == nil {
			return nil, fmt.Errorf("%w: %q", core.ErrUnknownTxnType, sh.Type)
		}
		if tt.AppendArgs == nil {
			return nil, fmt.Errorf("shot type %q has no AppendArgs", sh.Type)
		}
		buf = binary.AppendUvarint(buf, uint64(sh.Partition))
		buf = binary.AppendUvarint(buf, uint64(len(sh.Type)))
		buf = append(buf, sh.Type...)
		enc := tt.AppendArgs(nil, sh.Args)
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
	}
	return buf, nil
}

// decodePlan reverses encodePlan, resolving argument decoders through the
// given engine's type registry.
func (s *Set) decodePlan(data []byte) ([]Shot, error) {
	rd := planReader{data: data}
	n := rd.uvarint()
	if rd.err != nil {
		return nil, rd.err
	}
	shots := make([]Shot, 0, n)
	for i := uint64(0); i < n; i++ {
		part := rd.uvarint()
		name := rd.bytes()
		argsEnc := rd.bytes()
		if rd.err != nil {
			return nil, fmt.Errorf("shot %d: %w", i, rd.err)
		}
		tt := s.engines[0].Type(string(name))
		if tt == nil || tt.DecodeArgs == nil {
			return nil, fmt.Errorf("shot %d: cannot decode args of type %q", i, name)
		}
		args, err := tt.DecodeArgs(argsEnc)
		if err != nil {
			return nil, fmt.Errorf("shot %d (%s): %w", i, name, err)
		}
		if int(part) >= len(s.engines) {
			return nil, fmt.Errorf("shot %d targets partition %d of %d", i, part, len(s.engines))
		}
		shots = append(shots, Shot{Partition: int(part), Type: string(name), Args: args})
	}
	return shots, nil
}

type planReader struct {
	data []byte
	err  error
}

func (r *planReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = fmt.Errorf("partition: truncated shot plan")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *planReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.data)) < n {
		r.err = fmt.Errorf("partition: truncated shot plan")
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}
