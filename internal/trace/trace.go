// Package trace is the engine-wide structured event bus. Every layer of the
// system — the scheduler in internal/core, the lock manager in internal/lock,
// the write-ahead log in internal/wal — emits typed events into a Tracer, and
// pluggable sinks consume them: an in-memory ring for tests and debug
// endpoints, JSONL for offline analysis, and the Chrome trace_event format
// for chrome://tracing / Perfetto timelines.
//
// The paper's evaluation (§5, Figures 2-4) is an exercise in attributing
// response time to mechanisms — lock waits, interference rejections,
// compensations. The bus exists so the reproduction can make the same
// attribution on live runs instead of inferring it from end-to-end summaries.
//
// Design constraints, in order:
//
//  1. Disabled tracing must cost nothing. Emit sites hold a *Tracer that is
//     nil when tracing is off and guard every emission with a nil check; the
//     disabled path is one predictable branch (see BenchmarkTraceDisabled in
//     internal/lock).
//  2. Enabled tracing must not serialize the system it observes. Events are
//     appended to striped bounded buffers (stripe chosen by transaction ID,
//     so one transaction's events stay ordered within a stripe), and a
//     single background drainer hands full batches to the sink.
//  3. The bus never blocks the engine on a slow sink. When the drainer falls
//     behind and the handoff queue is full, whole batches are dropped and
//     counted; Drops() reports the loss honestly instead of stalling a
//     terminal mid-transaction.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates event types. The taxonomy is documented in DESIGN.md §9.
type Kind uint8

const (
	// KindTxnBegin marks the start of a transaction instance. Item carries
	// the transaction type name.
	KindTxnBegin Kind = iota + 1
	// KindTxnCommit marks commit; Dur is the transaction's total lifetime.
	KindTxnCommit
	// KindTxnAbort marks an abort without compensation (no completed steps
	// or baseline rollback); Extra carries the cause.
	KindTxnAbort
	// KindStepBegin marks the start of forward step Step.
	KindStepBegin
	// KindStepEnd marks successful completion of forward step Step; Dur is
	// the step's duration.
	KindStepEnd
	// KindStepRetry marks a forward step restarting after a scheduling
	// abort (deadlock victim, cancelled or timed-out wait); Extra carries
	// the triggering error.
	KindStepRetry
	// KindAssertCheck marks an assertional lock attachment: the one-level
	// ACC checking a step's active assertion against an item it touches.
	// Item is the locked item, Extra the assertion name.
	KindAssertCheck
	// KindCompBegin marks the start of a compensating step; Step is the
	// number of completed forward steps being compensated.
	KindCompBegin
	// KindCompDone marks successful completion of compensation; Dur spans
	// the compensating step.
	KindCompDone
	// KindLockAcquire marks a lock granted without waiting. Mode is the
	// granted mode tag: the conventional IS/IX/S/SIX/X, or the paper's A
	// (assertional lock), D (displayed/exposed intermediate state mark), C
	// (compensation reservation).
	KindLockAcquire
	// KindLockWait marks a request blocking; the matching grant, timeout or
	// victim event carries the wait duration.
	KindLockWait
	// KindLockGrant marks a previously blocked request being granted; Dur
	// is the time spent waiting.
	KindLockGrant
	// KindLockUpgrade marks a mode conversion (e.g. S→X) on an already held
	// item; Extra records "old->new".
	KindLockUpgrade
	// KindLockTimeout marks a wait abandoned by the wait-budget safety net;
	// Dur is the time waited.
	KindLockTimeout
	// KindLockAbort marks a wait cancelled from outside (the caller's
	// context, Extra "ctx", or an externally killed victim); Dur is the time
	// waited.
	KindLockAbort
	// KindDeadlockVictim marks a request aborted to break a waits-for
	// cycle. Extra is "self" when the requester completed the cycle and
	// aborted itself, "for-compensation" when a forward waiter was killed
	// so a compensating step could proceed (§3.4).
	KindDeadlockVictim
	// KindWALAppend marks one log record appended; Mode carries the record
	// type tag, Dur the record's encoded size in bytes.
	KindWALAppend
	// KindWALForce marks a log force; Dur is the force latency paid.
	KindWALForce
	// KindRPCBegin marks a network request admitted by the accd server;
	// Item carries the transaction type name, Extra the remote address.
	KindRPCBegin
	// KindRPCEnd marks an admitted network request completing; Dur is the
	// server-side latency, Extra the wire status it answered with.
	KindRPCEnd
	// KindRPCReject marks a request refused before execution; Extra is the
	// refusal cause ("queue-full", "draining", "unknown-type", "bad-request").
	KindRPCReject
	// KindTxnSpan is the latency-anatomy breakdown emitted once per finished
	// request span: Dur is the end-to-end latency, Item the transaction type,
	// Mode the final wire status, and Extra the non-zero per-stage durations
	// as "stage=ns;..." pairs (stage taxonomy in DESIGN.md §13).
	KindTxnSpan
	// KindSnapshotOpen marks a snapshot-tier read point registering; Txn is
	// the snapshot id, Dur the CSN it reads as of.
	KindSnapshotOpen
	// KindSnapshotClose marks a snapshot deregistering; Txn is the snapshot
	// id, Dur how long it was held.
	KindSnapshotClose
	// KindSnapshotGC marks a version-chain reaper pass that reclaimed
	// something; Txn is the floor CSN, Dur the versions pruned, Extra the
	// chains dropped.
	KindSnapshotGC
	// KindCoordBegin marks a cross-partition transaction starting: Txn is
	// the global id, Item the home transaction type, Extra the home
	// partition ("p3").
	KindCoordBegin
	// KindCoordCommit marks a global transaction completing all shots; Dur
	// is the end-to-end latency.
	KindCoordCommit
	// KindCoordAbort marks a global transaction rolled back, its completed
	// shots compensated; Extra carries the cause.
	KindCoordAbort
	// KindShotBegin marks one shot dispatching to a partition: Txn is the
	// global id, Step the shot index, Item the shot type, Extra the target
	// partition.
	KindShotBegin
	// KindShotEnd marks a shot's local commit; Dur is the shot latency.
	KindShotEnd
	// KindShotUndo marks the compensating undo of a committed shot during
	// global rollback or recovery; Step is the shot index being undone.
	KindShotUndo
	// KindCrossDeadlock marks a global transaction doomed as the victim of a
	// deadlock cycle that crosses partitions: Txn is the victim's global id,
	// Extra the cycle members.
	KindCrossDeadlock

	kindMax
)

var kindNames = [...]string{
	KindTxnBegin:       "txn.begin",
	KindTxnCommit:      "txn.commit",
	KindTxnAbort:       "txn.abort",
	KindStepBegin:      "step.begin",
	KindStepEnd:        "step.end",
	KindStepRetry:      "step.retry",
	KindAssertCheck:    "assert.check",
	KindCompBegin:      "comp.begin",
	KindCompDone:       "comp.done",
	KindLockAcquire:    "lock.acquire",
	KindLockWait:       "lock.wait",
	KindLockGrant:      "lock.grant",
	KindLockUpgrade:    "lock.upgrade",
	KindLockTimeout:    "lock.timeout",
	KindLockAbort:      "lock.abort",
	KindDeadlockVictim: "lock.victim",
	KindWALAppend:      "wal.append",
	KindWALForce:       "wal.force",
	KindRPCBegin:       "rpc.begin",
	KindRPCEnd:         "rpc.end",
	KindRPCReject:      "rpc.reject",
	KindTxnSpan:        "txn.span",
	KindSnapshotOpen:   "read.snapshot.open",
	KindSnapshotClose:  "read.snapshot.close",
	KindSnapshotGC:     "read.snapshot.gc",
	KindCoordBegin:     "coord.begin",
	KindCoordCommit:    "coord.commit",
	KindCoordAbort:     "coord.abort",
	KindShotBegin:      "shot.begin",
	KindShotEnd:        "shot.end",
	KindShotUndo:       "shot.undo",
	KindCrossDeadlock:  "coord.deadlock",
}

// String names the kind as it appears in sink output.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one bus record. The struct is fixed-size apart from its three
// string tags, which emit sites fill from interned constants where possible
// (mode and kind tags never allocate; item rendering allocates only when
// tracing is enabled).
type Event struct {
	// TS is nanoseconds since the tracer's epoch.
	TS int64
	// Dur is a duration or size in the event's units (see Kind docs).
	Dur int64
	// Txn is the transaction instance ID, 0 when not transaction-scoped.
	Txn uint64
	// Trace is the client-assigned wire trace ID carried in the request
	// header, 0 for in-process or pre-v3 traffic. It is what stitches one
	// request's client, server, and engine events together.
	Trace uint64
	// Kind is the event type.
	Kind Kind
	// Shard is the lock-table shard index, -1 when not lock-scoped.
	Shard int16
	// Step is the forward-step index, -1 when not step-scoped.
	Step int16
	// Mode is a small tag: lock mode (IS/IX/S/SIX/X/A/D/C) or WAL record
	// type.
	Mode string
	// Item names the subject: a lock item, transaction type, or assertion.
	Item string
	// Extra carries event-specific detail (cause, conversion, victim rule).
	Extra string
}

// Ev builds an event with the not-applicable markers (-1) preset for Shard
// and Step, so emit sites only fill what their layer knows.
func Ev(kind Kind, txn uint64) Event {
	return Event{Kind: kind, Txn: txn, Shard: -1, Step: -1}
}

// stripeCount is the number of independently latched emit buffers.
// Transactions hash onto stripes, so concurrent terminals rarely contend on
// the same buffer mutex.
const stripeCount = 16

// stripeCap is each stripe's buffer capacity. A full stripe is handed to the
// drainer as one batch.
const stripeCap = 512

// queueCap bounds the batch handoff queue between emitters and the drainer;
// beyond it batches are dropped and counted.
const queueCap = 64

type stripe struct {
	mu  sync.Mutex
	buf []Event
	_   [64]byte // keep neighbouring stripe mutexes off one cache line
}

type batch struct {
	events []Event
	done   chan struct{} // non-nil: flush sentinel, closed when processed
	stop   bool          // drainer exit sentinel (Close)
}

// Tracer is the event bus. A nil *Tracer is a valid, permanently disabled
// tracer as far as emit sites are concerned (they nil-check before calling
// any method); all methods below assume a non-nil receiver.
type Tracer struct {
	epoch   time.Time
	sink    Sink
	stripes [stripeCount]stripe
	queue   chan batch
	wg      sync.WaitGroup

	dropped  atomic.Uint64
	emitted  atomic.Uint64
	sinkErrs atomic.Uint64

	closed atomic.Bool
	free   sync.Pool // recycles drained []Event backing arrays
}

// New creates a tracer feeding sink and starts its drainer. The caller must
// Close it to flush buffered events and release the sink.
func New(sink Sink) *Tracer {
	t := &Tracer{
		epoch: time.Now(),
		sink:  sink,
		queue: make(chan batch, queueCap),
		free: sync.Pool{New: func() any {
			return make([]Event, 0, stripeCap)
		}},
	}
	for i := range t.stripes {
		t.stripes[i].buf = make([]Event, 0, stripeCap)
	}
	t.wg.Add(1)
	go t.drain()
	return t
}

// Now returns the event timestamp for the current instant.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Emit records one event. ev.TS is stamped here if zero. Emit never blocks
// on the sink: when the drainer cannot keep up the event (or a displaced
// batch) is dropped and counted.
func (t *Tracer) Emit(ev Event) {
	if t.closed.Load() {
		t.dropped.Add(1)
		return
	}
	if ev.TS == 0 {
		ev.TS = t.Now()
	}
	t.emitted.Add(1)
	s := &t.stripes[ev.Txn%stripeCount]
	s.mu.Lock()
	s.buf = append(s.buf, ev)
	if len(s.buf) < stripeCap {
		s.mu.Unlock()
		return
	}
	full := s.buf
	s.buf = t.free.Get().([]Event)[:0]
	s.mu.Unlock()
	t.enqueue(batch{events: full})
}

// enqueue hands a batch to the drainer without blocking; a full queue drops
// the batch.
func (t *Tracer) enqueue(b batch) {
	select {
	case t.queue <- b:
	default:
		t.dropped.Add(uint64(len(b.events)))
		t.free.Put(b.events[:0])
		if b.done != nil {
			close(b.done)
		}
	}
}

// drain is the single consumer: it forwards batches to the sink in arrival
// order and recycles their backing arrays. The queue channel is never
// closed — Close sends a stop sentinel instead — so a racing Emit can never
// panic on a closed channel; at worst its batch sits unread and is bounded
// by the queue capacity.
func (t *Tracer) drain() {
	defer t.wg.Done()
	for b := range t.queue {
		if len(b.events) > 0 {
			if err := t.sink.Write(b.events); err != nil {
				t.sinkErrs.Add(1)
			}
			t.free.Put(b.events[:0])
		}
		if b.done != nil {
			close(b.done)
		}
		if b.stop {
			return
		}
	}
}

// Flush pushes every buffered event through to the sink and waits for the
// drainer to process them. Events emitted concurrently with Flush may or may
// not be included.
func (t *Tracer) Flush() {
	if t.closed.Load() {
		return
	}
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		if len(s.buf) > 0 {
			full := s.buf
			s.buf = t.free.Get().([]Event)[:0]
			s.mu.Unlock()
			t.enqueue(batch{events: full})
			continue
		}
		s.mu.Unlock()
	}
	done := make(chan struct{})
	t.queue <- batch{done: done} // blocking: the sentinel must be processed
	<-done
}

// Close flushes, stops the drainer, and closes the sink. Emissions after
// Close are counted as drops.
func (t *Tracer) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Drain the stripes directly: Emit now drops, so the buffers are quiet.
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		if len(s.buf) > 0 {
			t.queue <- batch{events: s.buf} // blocking: final flush must land
			s.buf = nil
		}
		s.mu.Unlock()
	}
	t.queue <- batch{stop: true}
	t.wg.Wait()
	return t.sink.Close()
}

// Drops reports events lost to backpressure (drainer behind) or emitted
// after Close.
func (t *Tracer) Drops() uint64 { return t.dropped.Load() }

// Emitted reports events accepted by Emit (including ones later dropped).
func (t *Tracer) Emitted() uint64 { return t.emitted.Load() }

// SinkErrors reports batches the sink rejected.
func (t *Tracer) SinkErrors() uint64 { return t.sinkErrs.Load() }
