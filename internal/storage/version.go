package storage

import (
	"fmt"

	"accdb/internal/spi"
)

// version is one entry of a key's chain. A nil row is a tombstone: the key
// was absent as of the stamped CSN (the CSN semantics — total order, CSN 0
// reserved for pre-images — are documented on spi.CSN).
type version struct {
	csn spi.CSN
	row spi.Row
}

// seedVersionLocked starts pk's chain with its pre-image at CSN 0 if no chain
// exists yet. Callers hold t.mu exclusively and pass the key's current
// committed value (nil when absent) BEFORE applying their mutation, so a
// versioned reader never has to consult a base row that a still-uncommitted
// step may have overwritten: once a key is written, every as-of read resolves
// through the chain.
func (t *Table) seedVersionLocked(pk spi.Key, prior spi.Row) {
	if _, ok := t.versions[pk]; ok {
		return
	}
	if t.versions == nil {
		t.versions = make(map[spi.Key][]version)
	}
	if prior != nil {
		prior = prior.Clone()
	}
	t.versions[pk] = []version{{csn: 0, row: prior}}
}

// PublishVersion appends a committed (or exposed, at a step boundary) row
// image to pk's chain under the stamp csn. A nil row publishes a tombstone.
// prior is the key's value before the publishing transaction touched it: if
// garbage collection dropped the chain since the mutation seeded it, prior
// re-seeds the chain at CSN 0 first, so snapshots older than csn still find
// the key's pre-image instead of a hole. The engine serializes publications
// under its CSN clock mutex, so stamps arrive in non-decreasing order.
func (t *Table) PublishVersion(pk spi.Key, prior, row spi.Row, csn spi.CSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seedVersionLocked(pk, prior)
	if row != nil {
		row = row.Clone()
	}
	t.versions[pk] = append(t.versions[pk], version{csn: csn, row: row})
}

// GetAsOf returns a copy of pk's value as of asOf: the newest chain version
// stamped ≤ asOf, or — for a key never mutated since load or since its chain
// was collected — the base row, which is then guaranteed committed and
// quiescent. A tombstone (or an absent key) returns ErrNotFound.
func (t *Table) GetAsOf(pk spi.Key, asOf spi.CSN) (spi.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.rowAsOfLocked(pk, asOf)
	if !ok {
		return nil, fmt.Errorf("%w: %s", spi.ErrNotFound, t.schema.Name)
	}
	return row, nil
}

// rowAsOfLocked resolves pk as of asOf under the latch, returning a clone and
// whether the key exists at that CSN.
func (t *Table) rowAsOfLocked(pk spi.Key, asOf spi.CSN) (spi.Row, bool) {
	if chain, ok := t.versions[pk]; ok {
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].csn <= asOf {
				if chain[i].row == nil {
					return nil, false
				}
				return chain[i].row.Clone(), true
			}
		}
		return nil, false
	}
	row, ok := t.rows[pk]
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

// ScanAsOf visits every key that exists as of asOf, in unspecified order,
// with its as-of value. Keys visible only through tombstoned chains are
// skipped; keys whose chain says "existed at asOf" are visited even if the
// base row has since been deleted.
func (t *Table) ScanAsOf(asOf spi.CSN, visit func(pk spi.Key, row spi.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pk := range t.rows {
		if _, chained := t.versions[pk]; chained {
			continue // resolved through the chain loop below
		}
		row, ok := t.rowAsOfLocked(pk, asOf)
		if ok && !visit(pk, row) {
			return
		}
	}
	for pk := range t.versions {
		row, ok := t.rowAsOfLocked(pk, asOf)
		if ok && !visit(pk, row) {
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.index(indexName)
	if ix == nil {
		return fmt.Errorf("storage: %s has no index %q", t.schema.Name, indexName)
	}
	prefix := spi.EncodeKey(eq...)
	ix.tree.AscendPrefix(prefix, func(_, pk spi.Key) bool {
		row, ok := t.rowAsOfLocked(pk, asOf)
		if !ok {
			return true
		}
		return visit(pk, row)
	})
	return nil
}

// PruneVersions garbage-collects chains against floor, the oldest CSN any
// live snapshot may read at. Each chain is truncated to its newest version
// stamped ≤ floor (that version still serves the oldest snapshot; everything
// older is unreachable). A chain whose single surviving version is both ≤
// floor and value-identical to the current base row is dropped entirely —
// the key is quiescent, and the next mutation will re-seed it. The
// value-equality condition is what makes dropping safe: it proves no
// uncommitted base-row overwrite is in flight, because any mutation would
// have re-seeded a chain first. It returns the number of versions pruned and
// chains dropped.
func (t *Table) PruneVersions(floor spi.CSN) (pruned, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for pk, chain := range t.versions {
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
			t.versions[pk] = chain
		}
		if len(chain) == 1 && chain[0].csn <= floor {
			base, exists := t.rows[pk]
			v := chain[0].row
			if (v == nil && !exists) || (v != nil && exists && v.Equal(base)) {
				delete(t.versions, pk)
				pruned++
				dropped++
			}
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
	t.versions = nil
}

// VersionStats reports the table's current version-chain footprint.
func (t *Table) VersionStats() spi.VersionStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := spi.VersionStats{Chains: len(t.versions)}
	for _, chain := range t.versions {
		s.Versions += len(chain)
	}
	return s
}

// ChainLen reports the number of versions chained under pk (tests).
func (t *Table) ChainLen(pk spi.Key) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.versions[pk])
}
