package tpcc

import (
	"accdb/internal/core"
)

// Recovery-time consistency accounting. Conditions 2 and 3 of the TPC-C
// constraint verify consecutive order numbering, and a compensated
// new-order legitimately leaves a hole (§4 of the paper): the order number
// was consumed, the order itself semantically undone. A live Workload
// tracks its own holes as compensations happen; after a crash that record
// is gone, but the log is not — every compensated new-order's end-of-step
// work area carries its assigned order number.

// HolesFromRecovery derives the per-district order-number holes implied by
// a recovered log: every new_order compensated either before the crash
// (its compensation-done record is durable) or during recovery itself.
// Plain aborts (no completed step) restored the order counter in place and
// leave no hole; committed new-orders left real orders. The result feeds
// CheckConsistency on the recovered database.
func HolesFromRecovery(res *core.RecoverResult) map[DistrictKey]map[int64]bool {
	holes := make(map[DistrictKey]map[int64]bool)
	add := func(a *NewOrderArgs) {
		if a.ONum == 0 {
			return // compensated before an order number was assigned
		}
		k := DistrictKey{a.WID, a.DID}
		m, ok := holes[k]
		if !ok {
			m = make(map[int64]bool)
			holes[k] = m
		}
		m[a.ONum] = true
	}
	for _, t := range res.Analysis.Txns {
		if t.Type != "new_order" || !t.Compensated {
			continue
		}
		var a NewOrderArgs
		if newOrderCodec.Decode(t.WorkArea, &a) == nil {
			add(&a)
		}
	}
	for _, ct := range res.CompensatedTxns {
		if ct.Type != "new_order" {
			continue
		}
		if a, ok := ct.Args.(*NewOrderArgs); ok {
			add(a)
		}
	}
	return holes
}

// MergeHoles seeds the workload's hole record with holes recovered from a
// log, so a post-recovery run reports the union to the consistency checker.
func (w *Workload) MergeHoles(h map[DistrictKey]map[int64]bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k, m := range h {
		dst, ok := w.holes[k]
		if !ok {
			dst = make(map[int64]bool, len(m))
			w.holes[k] = dst
		}
		for o := range m {
			dst[o] = true
		}
	}
}

// AdvanceHistoryID moves the payment history-ID counter forward so a
// workload resumed over a recovered database cannot collide with history
// rows the replayed log already inserted.
func (w *Workload) AdvanceHistoryID(delta int64) { w.hID.Add(delta) }
