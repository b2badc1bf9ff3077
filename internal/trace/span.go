package trace

import "time"

// SpanStage indexes one timed segment of a transaction's end-to-end path.
// The taxonomy follows the request through every hop: admission queue,
// argument decode, the three assertional lock classes plus conventional
// waits (A/D/C as in DESIGN.md §9), step execution, WAL append, the
// group-commit window, result encode, and the batched write-out. Stages are
// disjoint by construction — StageExec is engine wall time minus the inner
// lock/WAL stages — so a span's stage durations sum to its end-to-end
// latency.
type SpanStage uint8

// The stages, in pipeline order.
const (
	StageQueue       SpanStage = iota // frame read → handler goroutine running
	StageDecode                       // argument decode (binary codec or JSON)
	StageLockConv                     // conventional-mode lock waits
	StageLockA                        // assertional (A-mode) lock waits
	StageLockD                        // exposure (D-mode) lock waits
	StageLockC                        // compensation-reservation (C-mode) lock waits
	StageExec                         // step execution: engine wall time minus inner stages
	StageWALAppend                    // WAL record append (in-memory image)
	StageGroupCommit                  // ForceTo: group-commit window wait + log sync
	StageEncode                       // result encode
	StageFlush                        // batch write-out to the socket
	NumSpanStages                     // count; not a stage
)

var spanStageNames = [NumSpanStages]string{
	"queue", "decode", "lock_conv", "lock_a", "lock_d", "lock_c",
	"exec", "wal_append", "group_commit", "encode", "flush",
}

// String returns the stage's snake_case name as used in metrics labels and
// JSONL keys.
func (s SpanStage) String() string {
	if s < NumSpanStages {
		return spanStageNames[s]
	}
	return "stage(?)"
}

// SpanEvent is one entry of a span's bounded trace-event history: what
// happened (a trace Kind), when relative to the span's start, and — for lock
// waits — the mode waited in and the item waited on.
type SpanEvent struct {
	TS   int64 // nanoseconds since the span started
	Kind Kind
	Mode string
	Item string
	Dur  int64 // duration in nanoseconds, when the kind carries one
}

// spanEventCap bounds the per-span event history. A TPC-C transaction emits
// a few dozen events end to end; past the cap the last slot is overwritten
// and the overwritten events are counted in Dropped rather than grown,
// keeping pooled spans allocation-free.
const spanEventCap = 48

// Span accumulates the latency anatomy of one request as it crosses the
// client/server/engine stack. All methods are nil-receiver safe, so callers
// thread a possibly-nil *Span unconditionally and a disabled anatomy costs a
// single predictable branch per call site.
//
// A span is owned by exactly one goroutine at a time: the session handler
// until the response is enqueued, then the BatchWriter loop (the enqueue
// mutex provides the happens-before edge), so no field needs atomics.
type Span struct {
	anatomy *Anatomy

	// TraceID is the client-assigned wire trace ID; TxnID the engine's
	// transaction ID (last attempt wins under retry).
	TraceID uint64
	TxnID   uint64
	// Type is the transaction type name; Status the final wire status.
	// Both are interned strings — recording them never allocates.
	Type   string
	Status string

	start    time.Time // wall-clock span start (frame read)
	mark     time.Time // last stage boundary, advanced by Next
	engInner int64     // inner-stage sum snapshot at EnterEngine
	durs     [NumSpanStages]int64
	total    int64

	events  []SpanEvent
	dropped uint32
}

// Next closes the contiguous stage that began at the previous boundary,
// charging the elapsed time to it, and opens the next one.
func (sp *Span) Next(stage SpanStage) {
	if sp == nil {
		return
	}
	now := time.Now()
	sp.durs[stage] += int64(now.Sub(sp.mark))
	sp.mark = now
}

// Add charges an absolute duration to an inner stage (lock waits, WAL
// appends, the group-commit window) without moving the boundary mark.
func (sp *Span) Add(stage SpanStage, d int64) {
	if sp == nil {
		return
	}
	sp.durs[stage] += d
}

// EnterEngine marks the handoff into the engine. The engine segment starts at
// the last boundary (the decode stage's Next), not at a second clock reading:
// a preemption between the two would otherwise belong to no stage.
func (sp *Span) EnterEngine() {
	if sp == nil {
		return
	}
	sp.engInner = sp.innerSum()
}

// ExitEngine closes the engine segment: everything the engine spent that was
// not charged to an inner stage (lock waits, WAL, group commit) becomes
// StageExec, and the boundary mark moves so the next Next measures encode.
func (sp *Span) ExitEngine() {
	if sp == nil {
		return
	}
	now := time.Now()
	exec := int64(now.Sub(sp.mark)) - (sp.innerSum() - sp.engInner)
	if exec > 0 {
		sp.durs[StageExec] += exec
	}
	sp.mark = now
}

func (sp *Span) innerSum() int64 {
	return sp.durs[StageLockConv] + sp.durs[StageLockA] + sp.durs[StageLockD] +
		sp.durs[StageLockC] + sp.durs[StageWALAppend] + sp.durs[StageGroupCommit]
}

// SetTxn records the engine identity once the transaction is admitted. Under
// whole-transaction retry the last attempt wins.
func (sp *Span) SetTxn(id uint64, typeName string) {
	if sp == nil {
		return
	}
	sp.TxnID = id
	sp.Type = typeName
}

// SetStatus records the final wire status name (an interned constant).
func (sp *Span) SetStatus(s string) {
	if sp == nil {
		return
	}
	sp.Status = s
}

// Event appends one entry to the span's bounded trace-event history. Once
// the history is full each later event overwrites the last slot, so the
// history always ends with the span's closing event (its commit or abort).
func (sp *Span) Event(kind Kind, mode, item string, dur int64) {
	if sp == nil {
		return
	}
	ev := SpanEvent{TS: int64(time.Since(sp.start)), Kind: kind, Mode: mode, Item: item, Dur: dur}
	if len(sp.events) == spanEventCap {
		sp.events[spanEventCap-1] = ev
		sp.dropped++
		return
	}
	if sp.events == nil {
		sp.events = make([]SpanEvent, 0, spanEventCap)
	}
	sp.events = append(sp.events, ev)
}

// Finish closes the span: the time since the last boundary is charged to
// StageFlush, the total is computed, and the span is handed back to its
// Anatomy (histograms, flight-recorder ring, slow-transaction dump) and
// returned to the pool. The span must not be touched after Finish.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	now := time.Now()
	sp.durs[StageFlush] += int64(now.Sub(sp.mark))
	sp.total = int64(now.Sub(sp.start))
	sp.anatomy.finish(sp)
}

// Stage returns the accumulated duration of one stage.
func (sp *Span) Stage(s SpanStage) int64 {
	if sp == nil {
		return 0
	}
	return sp.durs[s]
}

// reset prepares a pooled span for reuse, retaining the events capacity.
func (sp *Span) reset(a *Anatomy, traceID uint64, at time.Time) {
	sp.anatomy = a
	sp.TraceID = traceID
	sp.TxnID = 0
	sp.Type = ""
	sp.Status = ""
	if at.IsZero() {
		at = time.Now()
	}
	sp.start = at
	sp.mark = at
	sp.engInner = 0
	sp.durs = [NumSpanStages]int64{}
	sp.total = 0
	sp.events = sp.events[:0]
	sp.dropped = 0
}
