package wal

import (
	"errors"
	"fmt"
	"sort"

	"accdb/internal/spi"
)

// Recovery (§3.4, §5): steps are atomic and isolated, so the log-consistent
// state after a crash is "every completed step applied, the in-flight step
// discarded". Transactions with completed steps but no commit must then be
// *compensated*, not undone — their intermediate results may already have
// been observed by committed transactions. Analyze produces exactly that
// plan: the writes to replay and the transactions still owing compensation.
//
// A step is completed by its end-of-step record, and the final step by the
// commit record itself — no separate end-of-step record is written for it.
// So an uncommitted transaction never analyses with every step completed: a
// log cut anywhere in the final step leaves that step in flight, its writes
// are discarded, and compensation starts from the steps before it.

// WrittenItem identifies one tuple a transaction durably wrote (in a
// completed step). Recovery re-attaches D- and C-locks on these items for
// transactions that still owe compensation.
type WrittenItem struct {
	Table string
	PK    spi.Key
}

// TxnState summarizes one transaction's fate as recorded in the log.
type TxnState struct {
	ID             uint64
	Type           string
	CompletedSteps int
	WorkArea       []byte // saved at the last completed step (or at commit, for a shot)
	Committed      bool
	Aborted        bool
	Compensated    bool
	// Global and Shot carry the multi-shot stamp from the begin record:
	// Global 0 means the transaction is not a shot of a global transaction.
	Global uint64
	Shot   int32
	// Written lists the items mutated by completed steps, in log order
	// (duplicates possible). For a transaction that NeedsCompensation these
	// are the items whose interstep state is exposed.
	Written []WrittenItem
}

// NeedsCompensation reports whether the transaction must be compensated
// after recovery: it completed at least one step but neither committed,
// aborted cleanly, nor finished compensating.
func (t *TxnState) NeedsCompensation() bool {
	return !t.Committed && !t.Aborted && !t.Compensated && t.CompletedSteps > 0
}

// CoordState summarizes one multi-shot coordinator record (DESIGN.md §16):
// the decision record of a global transaction whose shots commit in several
// partition logs. A CoordState with neither Committed nor Aborted is an open
// global transaction the coordinator must drive to an outcome after a crash.
type CoordState struct {
	// Global is the coordinator's global transaction id.
	Global uint64
	// Type is the home transaction type name.
	Type string
	// Plan is the encoded shot plan saved in the decision record.
	Plan []byte
	// ShotsSeen records the shot indices whose advisory TCoordShot record
	// reached this log. Ground truth for a shot's fate is the shot's own
	// partition log (ShotTxn), not this set.
	ShotsSeen map[int32]bool
	// Committed and Aborted record a final coordinator outcome.
	Committed bool
	Aborted   bool
}

// Open reports whether the global transaction reached no durable outcome.
func (c *CoordState) Open() bool { return !c.Committed && !c.Aborted }

// Analysis is the outcome of scanning a log image.
type Analysis struct {
	Txns map[uint64]*TxnState

	// Coords maps global transaction ids to their coordinator state, for
	// logs that carry multi-shot decision records (the home partition).
	Coords map[uint64]*CoordState

	// MaxTxn is the largest transaction ID seen in the log; a recovering
	// engine must issue new IDs above it.
	MaxTxn uint64

	// MaxGlobal is the largest global transaction ID seen in coordinator
	// records or shot stamps; a recovering coordinator issues above it.
	MaxGlobal uint64

	// TornTail, when non-nil, records that the image ended in a damaged
	// frame: analysis covers only the valid prefix. A Clean() tear is the
	// expected mark of a mid-append crash; a non-clean one means durable
	// records were destroyed and the caller should refuse to proceed.
	TornTail *ErrTornTail

	// completedAttempt records, per (txn, unit), which execution attempt
	// reached its end-of-step record. A step aborted by deadlock and retried
	// logs a fresh TStepBegin; only the attempt that completed gets its
	// writes replayed — the earlier attempts' writes were undone in place.
	// unit is the step index for forward steps, compUnit for compensation.
	completedAttempt map[unitKey]int

	// shots indexes shot-stamped transactions by (global, shot) so the
	// coordinator can resolve each shot's fate in its partition log.
	shots map[globalShot]*TxnState
}

type globalShot struct {
	global uint64
	shot   int32
}

// ShotTxn returns the transaction that ran shot `shot` of global transaction
// `global` in this log, or nil if no such begin record was seen. Negative
// shot indices name the compensating undo of the corresponding shot.
func (a *Analysis) ShotTxn(global uint64, shot int32) *TxnState {
	return a.shots[globalShot{global, shot}]
}

type unitKey struct {
	txn  uint64
	unit int32
}

const compUnit int32 = -1

// Analyze scans a log image (typically Log.DurableBytes after a simulated
// crash) and classifies every transaction.
func Analyze(data []byte) (*Analysis, error) {
	a := &Analysis{
		Txns:             make(map[uint64]*TxnState),
		Coords:           make(map[uint64]*CoordState),
		completedAttempt: make(map[unitKey]int),
		shots:            make(map[globalShot]*TxnState),
	}
	get := func(id uint64) *TxnState {
		t, ok := a.Txns[id]
		if !ok {
			t = &TxnState{ID: id}
			a.Txns[id] = t
		}
		return t
	}
	coord := func(g uint64) *CoordState {
		c, ok := a.Coords[g]
		if !ok {
			c = &CoordState{Global: g, ShotsSeen: make(map[int32]bool)}
			a.Coords[g] = c
		}
		if g > a.MaxGlobal {
			a.MaxGlobal = g
		}
		return c
	}
	attempts := make(map[unitKey]int)
	// The unit (step or compensation) each transaction is currently in.
	current := make(map[uint64]unitKey)
	// Writes of the current (possibly doomed) attempt, per txn; promoted to
	// TxnState.Written only when the attempt's end-of-step record arrives.
	inFlight := make(map[uint64][]WrittenItem)
	// completeStep closes the current attempt of forward step `step`.
	completeStep := func(t *TxnState, step int32) {
		k := unitKey{t.ID, step}
		a.completedAttempt[k] = attempts[k]
		t.CompletedSteps = int(step) + 1
		t.Written = append(t.Written, inFlight[t.ID]...)
		inFlight[t.ID] = inFlight[t.ID][:0]
	}
	err := Replay(data, func(r Record) error {
		switch r.Type {
		// Coordinator records carry a GLOBAL transaction id in Txn — a
		// separate numbering space from this log's local ids — so they are
		// classified before the local-transaction bookkeeping below.
		case TCoordBegin:
			c := coord(r.Txn)
			c.Type, c.Plan = r.TxnType, r.WorkArea
			return nil
		case TCoordShot:
			coord(r.Txn).ShotsSeen[r.Step] = true
			return nil
		case TCoordCommit:
			coord(r.Txn).Committed = true
			return nil
		case TCoordAbort:
			coord(r.Txn).Aborted = true
			return nil
		}
		t := get(r.Txn)
		if r.Txn > a.MaxTxn {
			a.MaxTxn = r.Txn
		}
		switch r.Type {
		case TBegin:
			t.Type = r.TxnType
			if r.Global != 0 {
				t.Global, t.Shot = r.Global, r.Shot
				a.shots[globalShot{r.Global, r.Shot}] = t
				if r.Global > a.MaxGlobal {
					a.MaxGlobal = r.Global
				}
			}
		case TStepBegin:
			k := unitKey{r.Txn, r.Step}
			attempts[k]++
			current[r.Txn] = k
			inFlight[r.Txn] = inFlight[r.Txn][:0]
		case TCompBegin:
			k := unitKey{r.Txn, compUnit}
			attempts[k]++
			current[r.Txn] = k
			inFlight[r.Txn] = inFlight[r.Txn][:0]
		case TWrite:
			inFlight[r.Txn] = append(inFlight[r.Txn], WrittenItem{Table: r.Table, PK: r.PK})
		case TEndOfStep:
			completeStep(t, r.Step)
			t.WorkArea = r.WorkArea
		case TCommit:
			// The commit record is the final step's end-of-step record.
			if k, ok := current[r.Txn]; ok && k.unit != compUnit {
				completeStep(t, k.unit)
			}
			if len(r.WorkArea) > 0 {
				t.WorkArea = r.WorkArea
			}
			t.Committed = true
		case TAbort:
			t.Aborted = true
		case TCompDone:
			k := unitKey{r.Txn, compUnit}
			a.completedAttempt[k] = attempts[k]
			t.Compensated = true
			inFlight[r.Txn] = inFlight[r.Txn][:0]
		}
		return nil
	})
	var torn *ErrTornTail
	if errors.As(err, &torn) {
		// A damaged tail is the normal mark of a crash: analysis covers the
		// valid prefix and records what was dropped for the caller to judge.
		a.TornTail = torn
	} else if err != nil {
		return nil, err
	}
	return a, nil
}

// Apply replays, in log order, every write belonging to a completed step or
// completed compensation, invoking apply(table, pk, after) for each; a nil
// after image is a delete. The same data passed to Analyze must be passed
// here.
func (a *Analysis) Apply(data []byte, apply func(table string, pk spi.Key, after spi.Row)) error {
	// current unit and attempt per transaction, from step/comp markers.
	current := make(map[uint64]unitKey)
	attempts := make(map[unitKey]int)
	err := Replay(data, func(r Record) error {
		switch r.Type {
		case TStepBegin:
			k := unitKey{r.Txn, r.Step}
			attempts[k]++
			current[r.Txn] = k
		case TCompBegin:
			k := unitKey{r.Txn, compUnit}
			attempts[k]++
			current[r.Txn] = k
		case TWrite:
			k, ok := current[r.Txn]
			if !ok {
				return fmt.Errorf("wal: write for txn %d outside any step", r.Txn)
			}
			if a.completedAttempt[k] == attempts[k] {
				apply(r.Table, r.PK, r.After)
			}
		}
		return nil
	})
	var torn *ErrTornTail
	if errors.As(err, &torn) {
		// Same image Analyze already accepted; the tear is already recorded.
		return nil
	}
	return err
}

// Pending returns the transactions that still owe compensation, in
// transaction-ID order for determinism.
func (a *Analysis) Pending() []*TxnState {
	var out []*TxnState
	for _, t := range a.Txns {
		if t.NeedsCompensation() {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
