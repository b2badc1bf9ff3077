package core

// Versioned reads and consistency tiers (DESIGN.md §14, CONSISTENCY.md).
//
// The assertional model makes read-only work uniquely cheap: an interstep
// assertion never depends on a reader, so a consistent snapshot can be served
// with no A/D/C locks at all. This file implements that read path: the engine
// stamps a commit sequence number (CSN) on every batch of row versions it
// publishes at an exposure point — end-of-step force, commit force,
// compensation-done force — and read-only transactions resolve rows against
// those per-key version chains (internal/storage version.go) instead of the
// lock manager. A snapshot-tier reader holds one CSN for its whole lifetime,
// acquires zero locks, writes zero log records, and never appears in the
// waits-for graph; a background reaper garbage-collects chain versions behind
// the oldest live snapshot.
//
// Versions are published when their record is appended, before it is durable,
// and a versioned reader takes no locks, so it cannot see the retired grants
// locked readers take their durability dependency from. It follows the
// conservative rule instead: publishWrites keeps the log position of the
// newest published record, and the reader's reply waits for the log to be
// durable through the mark as of the CSN it read at — on a memory-only log,
// one load.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"accdb/internal/spi"
	"accdb/internal/trace"
	"accdb/internal/wal"
)

// ReadTier selects the consistency level of a read-only transaction. The
// zero value is the fully locked path.
type ReadTier uint8

const (
	// TierLocked routes reads through the lock manager like any other
	// transaction: strict 2PL within steps, full assertional protocol. This
	// is the default and the only tier that permits writes.
	TierLocked ReadTier = iota
	// TierSnapshot fixes one CSN for the whole read-only transaction: every
	// row resolves as of that CSN, giving a stable transaction-wide view.
	// The snapshot registers in the engine's live-snapshot table for the one
	// Exec that reads through it, so the reaper preserves the versions it
	// can still reach.
	TierSnapshot

	tierMax
)

// String names the tier as it appears in flags, metrics labels, and errors.
func (t ReadTier) String() string {
	switch t {
	case TierLocked:
		return "locked"
	case TierSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// ValidTier reports whether b encodes a known tier (wire validation).
func ValidTier(b uint8) bool { return b < uint8(tierMax) }

// ParseReadTier maps a flag string onto a tier (accbench -read-tier).
func ParseReadTier(s string) (ReadTier, error) {
	switch s {
	case "", "locked":
		return TierLocked, nil
	case "snapshot":
		return TierSnapshot, nil
	default:
		return TierLocked, fmt.Errorf("core: unknown read tier %q (want locked|snapshot)", s)
	}
}

// defaultVersionGCInterval is the reaper cadence when Options leaves
// VersionGCInterval zero.
const defaultVersionGCInterval = 100 * time.Millisecond

// publishWrites installs one exposure unit's after-images into the version
// chains under a freshly assigned CSN and only then advances the clock, so a
// reader that loads the clock always sees a fully installed prefix. Within
// the unit, the last write to a key wins and the first write's before-image
// seeds the chain if garbage collection dropped it. lsn is the end of the
// unit's log record, appended but not yet durable: it raises the published
// high-water mark first, so a versioned reader that loads the mark after it
// resolved a row never misses the record that row depends on. Returns the
// assigned CSN (0 when there was nothing to publish).
func (e *Engine) publishWrites(writes []writeRec, lsn wal.LSN) spi.CSN {
	if len(writes) == 0 {
		return 0
	}
	e.pubMu.Lock()
	if uint64(lsn) > e.pubLSN.Load() {
		e.pubLSN.Store(uint64(lsn))
	}
	csn := spi.CSN(e.csnClock.Load() + 1)
	for i := range writes {
		w := &writes[i]
		first := true
		for j := range writes[:i] {
			if writes[j].t == w.t && writes[j].pk == w.pk {
				first = false
				break
			}
		}
		if !first {
			continue // this key's publication was handled at its first record
		}
		after := w.after
		for j := i + 1; j < len(writes); j++ {
			if writes[j].t == w.t && writes[j].pk == w.pk {
				after = writes[j].after
			}
		}
		w.t.PublishVersion(w.pk, w.before, after, csn)
		e.versionsPublished.Add(1)
	}
	e.csnClock.Store(uint64(csn))
	e.pubMu.Unlock()
	return csn
}

// openSnapshot registers a live read point. The CSN is loaded under snapMu —
// the same mutex the reaper computes its floor under — so a snapshot is
// either visible to a concurrent floor computation or opens at a CSN no
// older than the floor that computation used; either way the versions it
// needs survive. The published log mark is loaded after the CSN, so it covers
// every record the snapshot can see.
func (e *Engine) openSnapshot() (uint64, spi.CSN, wal.LSN) {
	e.snapMu.Lock()
	e.nextSnap++
	id := e.nextSnap
	csn := spi.CSN(e.csnClock.Load())
	lsn := wal.LSN(e.pubLSN.Load())
	e.snaps[id] = csn
	e.snapMu.Unlock()
	e.snapshotsOpened.Add(1)
	return id, csn, lsn
}

func (e *Engine) closeSnapshot(id uint64) {
	e.snapMu.Lock()
	delete(e.snaps, id)
	e.snapMu.Unlock()
}

// snapshotFloor is the oldest CSN any live snapshot may still read at; with
// no snapshot open it is the current clock, so quiescent chains collapse to
// one version (and usually drop entirely).
func (e *Engine) snapshotFloor() spi.CSN {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	floor := spi.CSN(e.csnClock.Load())
	for _, csn := range e.snaps {
		if csn < floor {
			floor = csn
		}
	}
	return floor
}

// LiveSnapshots reports the number of currently open snapshots.
func (e *Engine) LiveSnapshots() int {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	return len(e.snaps)
}

// ReapVersions runs one garbage-collection pass: every table's chains are
// truncated to the newest version at or below the snapshot floor, and
// quiescent chains are dropped. The background reaper calls this on its
// interval; tests call it directly.
func (e *Engine) ReapVersions() (pruned, dropped int) {
	floor := e.snapshotFloor()
	for _, name := range e.db.store.Names() {
		if t := e.db.Table(name); t != nil {
			p, d := t.PruneVersions(floor)
			pruned += p
			dropped += d
		}
	}
	e.gcRuns.Add(1)
	e.gcPruned.Add(uint64(pruned))
	e.gcDropped.Add(uint64(dropped))
	return pruned, dropped
}

// resetVersions drops every chain in the catalog (engine attach, recovery
// epilogue): the base rows are committed and quiescent at those moments, so
// the as-of fallback is exact.
func (e *Engine) resetVersions() {
	for _, name := range e.db.store.Names() {
		if t := e.db.Table(name); t != nil {
			t.ResetVersions()
		}
	}
}

// startReaper launches the background GC goroutine per the configured
// interval; Close stops it. A negative interval disables it.
func (e *Engine) startReaper() {
	interval := e.opt.VersionGCInterval
	if interval < 0 {
		return
	}
	if interval == 0 {
		interval = defaultVersionGCInterval
	}
	e.reaperStop = make(chan struct{})
	e.reaperDone = make(chan struct{})
	go func() {
		defer close(e.reaperDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				e.ReapVersions()
			case <-e.reaperStop:
				return
			}
		}
	}()
}

func (e *Engine) stopReaper() {
	if e.reaperStop == nil {
		return
	}
	close(e.reaperStop)
	<-e.reaperDone
}

// VersionMetrics aggregates the versioned-read subsystem's counters and the
// catalog-wide chain footprint (the /metrics series).
type VersionMetrics struct {
	// CSN is the current commit sequence number.
	CSN uint64
	// Published counts versions installed into chains.
	Published uint64
	// SnapshotsOpened counts snapshots ever opened; LiveSnapshots is the
	// number still open.
	SnapshotsOpened uint64
	LiveSnapshots   int
	// GCRuns, GCPruned, GCDropped count reaper passes, versions reclaimed,
	// and whole chains dropped.
	GCRuns    uint64
	GCPruned  uint64
	GCDropped uint64
	// Chains and ChainVersions are the current catalog-wide footprint.
	Chains        int
	ChainVersions int
}

// Versions snapshots the versioned-read subsystem's metrics.
func (e *Engine) Versions() VersionMetrics {
	m := VersionMetrics{
		CSN:             e.csnClock.Load(),
		Published:       e.versionsPublished.Load(),
		SnapshotsOpened: e.snapshotsOpened.Load(),
		LiveSnapshots:   e.LiveSnapshots(),
		GCRuns:          e.gcRuns.Load(),
		GCPruned:        e.gcPruned.Load(),
		GCDropped:       e.gcDropped.Load(),
	}
	for _, name := range e.db.store.Names() {
		if t := e.db.Table(name); t != nil {
			vs := t.VersionStats()
			m.Chains += vs.Chains
			m.ChainVersions += vs.Versions
		}
	}
	return m
}

// runRead executes the type's step bodies sequentially against a snapshot
// opened for this call and closed when it returns: no lock manager, no WAL,
// no exposure marks — the paper's reader-free waits-for graph made literal.
// Step preconditions are not re-evaluated: a published CSN prefix is by
// construction a state every discharged assertion held over
// (CONSISTENCY.md). The reply waits for the log to be durable through the
// published mark captured with the snapshot's CSN.
func (e *Engine) runRead(ctx context.Context, tt *TxnType, args any, sp *trace.Span) error {
	id, csn, need := e.openSnapshot()
	defer e.closeSnapshot(id)
	start := time.Now()
	txn := &txnState{
		tt:    tt,
		args:  args,
		ctx:   ctx,
		steps: tt.stepsFor(args),
		info:  tt.lockTxn(spi.TxnID(e.nextTxn.Add(1))),
		span:  sp,
	}
	sp.SetTxn(uint64(txn.info.ID), tt.Name)
	const tier = TierSnapshot
	txn.span.Event(trace.KindTxnBegin, tier.String(), tt.Name, 0)
	tc := e.stepCtx(txn, 0, 0, nil, false)
	tc.readTier, tc.readCSN = tier, csn
	for j := range txn.steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		tc.stepIdx, tc.stepType = j, txn.steps[j].Type
		if err := txn.steps[j].Body(tc); err != nil {
			if errors.Is(err, ErrAborted) {
				e.userAborts.Add(1)
			}
			txn.span.Event(trace.KindTxnAbort, tier.String(), tt.Name, int64(time.Since(start)))
			return fmt.Errorf("core: %s (%s read) failed: %w", tt.Name, tier, err)
		}
	}
	if err := e.awaitDurable(need, sp); err != nil {
		return err
	}
	txn.span.Event(trace.KindTxnCommit, tier.String(), tt.Name, int64(time.Since(start)))
	return nil
}
