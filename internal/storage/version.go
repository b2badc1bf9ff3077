package storage

import "accdb/internal/spi"

// version is one entry of a key's chain. A nil row is a tombstone: the key
// was absent as of the stamped CSN (the CSN semantics — total order, CSN 0
// reserved for pre-images — are documented on spi.CSN).
type version struct {
	csn spi.CSN
	row spi.Row
}

// seedVersionLocked starts rec's chain with its pre-image at CSN 0 if it has
// no chain yet. Callers hold t.mu exclusively and pass the key's current
// committed value (nil when absent) BEFORE applying their mutation, so a
// versioned reader never has to consult a base image that a still-uncommitted
// step may have replaced: once a key is written, every as-of read resolves
// through the chain.
func (t *Table) seedVersionLocked(rec *record, prior spi.Row) {
	if rec.chain != nil {
		return
	}
	// Room for the version the writer publishes next, so that publish does
	// not regrow the chain.
	rec.chain = make([]version, 1, 2)
	rec.chain[0] = version{csn: 0, row: prior}
	if t.chained == nil {
		t.chained = make(map[*record]struct{})
	}
	t.chained[rec] = struct{}{}
}

// PublishVersion appends a committed (or exposed, at a step boundary) row
// image to pk's chain under the stamp csn. A nil row publishes a tombstone.
// prior is the key's value before the publishing transaction touched it: if
// garbage collection dropped the chain since the mutation seeded it, prior
// re-seeds the chain at CSN 0 first, so snapshots older than csn still find
// the key's pre-image instead of a hole. The engine serializes publications
// under its CSN clock mutex, so stamps arrive in non-decreasing order. The
// chain keeps both images; they are normally the ones the table already
// holds.
func (t *Table) PublishVersion(pk spi.Key, prior, row spi.Row, csn spi.CSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.recordLocked(pk)
	t.seedVersionLocked(rec, prior)
	rec.chain = append(rec.chain, version{csn: csn, row: row})
}

// asOf resolves the record as of csn: the newest chain version stamped ≤ csn,
// or — for a key never mutated since load or since its chain was collected —
// the base image, which is then guaranteed committed and quiescent. Nil means
// the key does not exist at csn.
func (r *record) asOf(csn spi.CSN) spi.Row {
	if r.chain == nil {
		return r.base
	}
	for i := len(r.chain) - 1; i >= 0; i-- {
		if r.chain[i].csn <= csn {
			return r.chain[i].row
		}
	}
	return nil
}

// GetAsOf returns pk's value as of asOf (record.asOf), shared like every row
// the table hands out. A tombstone (or an absent key) returns ErrNotFound.
func (t *Table) GetAsOf(pk spi.Key, asOf spi.CSN) (spi.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if rec := t.recs[pk]; rec != nil {
		if row := rec.asOf(asOf); row != nil {
			return row, nil
		}
	}
	return nil, t.notFound()
}

// ScanAsOf visits every key that exists as of asOf, in unspecified order,
// with its as-of value. Keys visible only through tombstoned chains are
// skipped; keys whose chain says "existed at asOf" are visited even if the
// base row has since been deleted.
func (t *Table) ScanAsOf(asOf spi.CSN, visit func(pk spi.Key, row spi.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pk, rec := range t.recs {
		if row := rec.asOf(asOf); row != nil && !visit(pk, row) {
			return
		}
	}
}

// IndexScanAsOf visits rows whose indexed columns equal eq, in index order,
// resolving each row's contents as of asOf. Index MEMBERSHIP is read-ASAP —
// the probe walks the current B+-tree, so a row inserted after asOf whose
// chain proves it absent is skipped, but a row deleted after asOf is found
// only if its index entry still exists. CONSISTENCY.md documents this
// asymmetry; TPC-C's read-only probes are over stable or append-only
// populations where it is invisible.
func (t *Table) IndexScanAsOf(indexName string, eq []spi.Value, asOf spi.CSN, visit func(pk spi.Key, row spi.Row) bool) error {
	return t.walkPrefix(indexName, spi.EncodeKey(eq...), func(rec *record) bool {
		row := rec.asOf(asOf)
		return row == nil || visit(rec.pk, row)
	})
}

// sameImage reports whether a chain version and a base image are the same
// value: both absent, or equal rows. The version a commit published is
// normally the very image the table holds, so identity answers first.
func sameImage(v, base spi.Row) bool {
	if v == nil || base == nil {
		return v == nil && base == nil
	}
	return len(v) == len(base) && (&v[0] == &base[0] || v.Equal(base))
}

// PruneVersions garbage-collects chains against floor, the oldest CSN any
// live snapshot may read at. Each chain is truncated to its newest version
// stamped ≤ floor (that version still serves the oldest snapshot; everything
// older is unreachable). A chain whose single surviving version is both ≤
// floor and value-identical to the current base row is dropped entirely —
// the key is quiescent, and the next mutation will re-seed it — and a record
// left with neither base image nor chain leaves the table. The
// value-equality condition is what makes dropping safe: it proves no
// uncommitted base-row overwrite is in flight, because any mutation would
// have re-seeded a chain first. It walks the chained records only, and
// returns the number of versions pruned and chains dropped.
func (t *Table) PruneVersions(floor spi.CSN) (pruned, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for rec := range t.chained {
		chain := rec.chain
		keep := 0 // index of the newest version stamped ≤ floor
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].csn <= floor {
				keep = i
				break
			}
		}
		if keep > 0 {
			pruned += keep
			chain = chain[keep:]
			rec.chain = chain
		}
		if len(chain) == 1 && chain[0].csn <= floor && sameImage(chain[0].row, rec.base) {
			rec.chain = nil
			delete(t.chained, rec)
			if rec.base == nil {
				delete(t.recs, rec.pk)
			}
			pruned++
			dropped++
		}
	}
	return pruned, dropped
}

// ResetVersions drops every chain. Valid only at moments when all base rows
// are committed and quiescent — engine attach after bulk load, end of
// recovery — where the as-of base-row fallback is exact.
func (t *Table) ResetVersions() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for rec := range t.chained {
		rec.chain = nil
		if rec.base == nil {
			delete(t.recs, rec.pk)
		}
	}
	t.chained = nil
}

// VersionStats reports the table's current version-chain footprint.
func (t *Table) VersionStats() spi.VersionStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := spi.VersionStats{Chains: len(t.chained)}
	for rec := range t.chained {
		s.Versions += len(rec.chain)
	}
	return s
}

// ChainLen reports the number of versions chained under pk (tests).
func (t *Table) ChainLen(pk spi.Key) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if rec := t.recs[pk]; rec != nil {
		return len(rec.chain)
	}
	return 0
}
