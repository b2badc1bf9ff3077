package tpcc

import (
	"accdb/internal/core"
)

// HoleTracker accumulates the order-number holes left by compensated
// new-orders, observed server-side through the accd OnOutcome hook. After a
// drain, accd hands Holes to CheckConsistency — the same bookkeeping the
// in-process Workload does for the terminals it drives directly.
type HoleTracker struct {
	w Workload // reuse the workload's hole map and locking
}

// NewHoleTracker returns an empty tracker.
func NewHoleTracker() *HoleTracker {
	return &HoleTracker{w: Workload{holes: make(map[DistrictKey]map[int64]bool)}}
}

// Observe records args of a compensated new-order; it matches the
// server.Config.OnOutcome signature. Safe for concurrent use.
func (t *HoleTracker) Observe(txnType string, args any, err error) {
	if txnType != "new_order" || !core.IsCompensated(err) {
		return
	}
	if a, ok := args.(*NewOrderArgs); ok {
		t.w.addHole(a.WID, a.DID, a.ONum)
	}
}

// Holes returns the compensated order numbers per district.
func (t *HoleTracker) Holes() map[DistrictKey]map[int64]bool {
	return t.w.Holes()
}
