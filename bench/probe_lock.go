package main

import (
	"context"

	_ "accdb/internal/backends"
	"accdb/internal/spi"
	"accdb/internal/tpcc"
)

// probeLock prices the registered lock service's uncontended paths over the
// TPC-C items: one acquisition per mode on a fresh transaction (a holder's
// re-request would take the reentrant shortcut and price nothing), exposure
// attachment, release of a typical small footprint, and one lookup in the
// interference tables. Nothing ever waits here; waiting is what the
// workloads' lock.* counters and stages measure. The lock service cannot be
// wrapped in spans from outside — the registry refuses a second
// registration — so its live numbers come from those, not from here.
func (p *prober) probeLock() error {
	types := tpcc.BuildTypes()
	locks := spi.NewLockService(types.Tables)
	scale := tpcc.DefaultScale()
	ctx := context.Background()
	// A batch is as many transactions as the workloads have terminals: the
	// most that ever hold the same intention lock at once.
	const batch = terminals

	rows := make([]spi.Item, batch)
	for i := range rows {
		rows[i] = spi.RowItem(tpcc.TStock, spi.EncodeKey(spi.I64(1), spi.I64(int64(1+i%scale.Items))))
	}
	table := spi.TableItem(tpcc.TStock)

	// Each batch gets fresh transactions; the previous batch's locks are
	// dropped, untimed, before the next batch starts.
	var txns [batch]*spi.Txn
	next := spi.TxnID(0)
	fresh := func(int) {
		for i, t := range txns {
			if t != nil {
				locks.ReleaseAll(t)
			}
			next++
			txns[i] = spi.NewTxn(next, types.NewOrder)
		}
	}
	var fail error
	acquire := func(name string, item func(i int) spi.Item, req spi.LockRequest) {
		p.out[name] = p.measure("lock", name, batch, fresh, func(i int) {
			if err := locks.AcquireCtx(ctx, txns[i%batch], item(i), req); err != nil && fail == nil {
				fail = err
			}
		})
	}
	row := func(i int) spi.Item { return rows[i%batch] }
	acquire("lock.acquire_ix_ns", func(int) spi.Item { return table }, spi.LockRequest{Mode: spi.ModeIX, Step: types.NO2})
	acquire("lock.acquire_s_ns", row, spi.LockRequest{Mode: spi.ModeS, Step: types.SL})
	acquire("lock.acquire_x_ns", row, spi.LockRequest{Mode: spi.ModeX, Step: types.NO2})
	acquire("lock.acquire_a_ns", row, spi.LockRequest{Mode: spi.ModeA, Step: types.NO2, Assertion: types.ANoOpen})
	p.out["lock.attach_exposure_ns"] = p.measure("lock", "lock.attach_exposure_ns", batch, fresh, func(i int) {
		locks.AttachExposure(txns[i%batch], rows[i%batch])
	})
	// What a new-order line holds when its step ends: IX on the table, X on
	// the row, the row exposed.
	p.out["lock.release_all_ns"] = p.measure("lock", "lock.release_all_ns", batch,
		func(i int) {
			fresh(i)
			for j, t := range txns {
				for _, err := range []error{
					locks.AcquireCtx(ctx, t, table, spi.LockRequest{Mode: spi.ModeIX, Step: types.NO2}),
					locks.AcquireCtx(ctx, t, rows[j], spi.LockRequest{Mode: spi.ModeX, Step: types.NO2}),
				} {
					if err != nil && fail == nil {
						fail = err
					}
				}
				locks.AttachExposure(t, rows[j])
			}
		},
		func(i int) { locks.ReleaseAll(txns[i%batch]) })
	fresh(0)
	if fail != nil {
		return failf("lock: %w", fail)
	}
	if st := locks.Stats(); st.Waits != 0 {
		return failf("lock: %d waits in a probe that must never wait", st.Waits)
	}

	steps := []spi.StepTypeID{types.NO1, types.NO2, types.NOF, types.P1, types.P2, types.P3, types.D1, types.D2, types.DF}
	sink := false
	p.ns("interference", "interference.lookup_ns", batch, func(i int) {
		sink = types.Tables.MayInterleave(steps[i%len(steps)], types.NewOrder, i%3) != sink
	})
	return nil
}
