package tpcc

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"accdb/internal/core"
)

// txnAllocBudget is the most allocations a whole transaction of each TPC-C
// type may make through Set.Exec at a tier, as read under -race (which reads a
// little higher than a plain run). The budget may only go down: lower a
// ceiling when a change spends allocations, never raise one. The rows run in
// order over one database: the snapshot-tier reads come first, on the loaded
// state, so that no writer row's output moves what they read.
var txnAllocBudget = []struct {
	name string
	tier core.ReadTier
	max  float64
	draw func(w *Workload, r *rand.Rand) any
}{
	{"order_status", core.TierSnapshot, 13, func(w *Workload, r *rand.Rand) any { return w.OrderStatusArgs(r) }},
	{"stock_level", core.TierSnapshot, 22, func(w *Workload, r *rand.Rand) any { return w.StockLevelArgs(r, 0) }},
	{"new_order", core.TierLocked, 117, func(w *Workload, r *rand.Rand) any { return w.NewOrderArgs(r) }},
	{"payment", core.TierLocked, 21, func(w *Workload, r *rand.Rand) any { return w.PaymentArgs(r) }},
	{"delivery", core.TierLocked, 115, func(w *Workload, r *rand.Rand) any { return w.DeliveryArgs(r) }},
	{"order_status", core.TierLocked, 15, func(w *Workload, r *rand.Rand) any { return w.OrderStatusArgs(r) }},
	{"stock_level", core.TierLocked, 23, func(w *Workload, r *rand.Rand) any { return w.StockLevelArgs(r, 0) }},
}

// TestTxnAllocBudget pins the allocations of one whole transaction per TPC-C
// type, in process on one partition (load seed 1, the default scale), averaged
// over 2,000 pre-drawn argument records executed one after another. The
// records are drawn before the count starts, so only Set.Exec is priced.
func TestTxnAllocBudget(t *testing.T) {
	st, err := NewStack(StackConfig{
		Partitions: 1, Scale: DefaultScale(), Seed: 1,
		// No background version reaper: how often it ran would move the
		// count of the chains writers re-seed after it.
		Engine: []core.Option{core.WithWaitTimeout(20 * time.Second), core.WithVersionGCInterval(-1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := NewWorkload(st.Set, DefaultWorkloadConfig(st.Scale))
	r := rand.New(rand.NewSource(1))
	ctx := context.Background()
	const draws = 2000
	for _, b := range txnAllocBudget {
		args := make([]any, draws)
		for i := range args {
			args[i] = b.draw(w, r)
		}
		i := 0
		got := testing.AllocsPerRun(draws-1, func() { // one warm-up run, then draws-1
			req := core.Request{Name: b.name, Args: args[i], Tier: b.tier}
			i++
			if err := st.Set.Exec(ctx, req); err != nil && !core.IsCompensated(err) && !errors.Is(err, core.ErrUserAbort) {
				t.Fatalf("%s at %v: %v", b.name, b.tier, err)
			}
		})
		t.Logf("%s at %v: %.0f allocs/txn (budget %.0f)", b.name, b.tier, got, b.max)
		if got > b.max {
			t.Errorf("%s at %v: %.0f allocs/txn, over its budget of %.0f", b.name, b.tier, got, b.max)
		}
	}
}
