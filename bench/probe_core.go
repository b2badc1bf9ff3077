package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	_ "accdb/internal/backends"
	"accdb/internal/core"
	"accdb/internal/spi"
	"accdb/internal/tpcc"
	"accdb/internal/wal"
)

// This file is the only one that calls into internal/core. It holds the
// probes' in-process testbed (an engine over a freshly loaded TPC-C database)
// and the core probes. fig_contended does not use it: that workload runs on
// internal/experiment's testbed.

// loadDB builds a database holding the deterministic TPC-C initial state.
func loadDB(seed int64, scale tpcc.Scale) (*core.DB, error) {
	db := core.NewDB()
	if err := tpcc.CreateSchema(db); err != nil {
		return nil, err
	}
	if err := tpcc.Load(db, scale, seed); err != nil {
		return nil, err
	}
	return db, nil
}

// loadStore is loadDB for the storage probes, which work on the row store
// underneath: core.NewDB opens the default backend through spi.OpenStore.
func loadStore(seed int64, scale tpcc.Scale) (spi.Store, error) {
	db, err := loadDB(seed, scale)
	if err != nil {
		return nil, err
	}
	return db.Store(), nil
}

// testbed is an engine with the TPC-C types registered. It keeps the
// order-number holes compensated new-orders leave, which the consistency
// audit needs, the way accd does server-side.
type testbed struct {
	eng   *core.Engine
	scale tpcc.Scale
	holes *tpcc.HoleTracker
}

func newTestbed(db *core.DB, scale tpcc.Scale, opts ...core.Option) (*testbed, error) {
	types := tpcc.BuildTypes()
	eng := core.New(db, types.Tables, opts...)
	if _, err := tpcc.Register(eng, types, scale); err != nil {
		eng.Close()
		return nil, err
	}
	return &testbed{eng: eng, scale: scale, holes: tpcc.NewHoleTracker()}, nil
}

// run executes one transaction at a tier and notes the hole it may leave.
func (t *testbed) run(ctx context.Context, name string, args any, tier core.ReadTier) error {
	err := t.eng.RunReadContext(ctx, name, args, tier)
	t.holes.Observe(name, args, err)
	return err
}

// audit runs the twelve-condition TPC-C consistency check over the final
// database, accepting the holes holes names.
func (t *testbed) audit(holes map[tpcc.DistrictKey]map[int64]bool) error {
	if errs := tpcc.CheckConsistency(t.eng.DB(), t.scale, holes); len(errs) > 0 {
		return fmt.Errorf("bench: %s engine left an inconsistent database (%d violations), first: %w",
			t.eng.Mode(), len(errs), errs[0])
	}
	return nil
}

func (t *testbed) close() { t.eng.Close() }

// probeCore prices each transaction type on an in-process engine with a
// memory log and no simulated service time: what the engine itself costs
// per transaction once wire, server and disk are taken away.
func (p *prober) probeCore() error {
	scale := tpcc.DefaultScale()
	db, err := loadDB(p.seed, scale)
	if err != nil {
		return err
	}
	tb, err := newTestbed(db, scale, core.WithWaitTimeout(10*time.Second))
	if err != nil {
		return err
	}
	defer tb.close()
	gen := tpcc.NewRemoteWorkload(nil, tpcc.DefaultWorkloadConfig(scale))
	r := p.rng(2)
	ctx := context.Background()
	var firstErr error
	run := func(name string, args any, tier core.ReadTier) {
		if err := checkOutcome(name, args, tb.run(ctx, name, args, tier)); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Inputs are drawn before the clock starts; only the run is timed.
	draw := func(next func(i int) any) []any {
		args := make([]any, p.maxIter)
		for i := range args {
			args[i] = next(i)
		}
		return args
	}
	newOrders := draw(func(int) any { return gen.NewOrderArgs(r) })
	p.us("core", "core.new_order_us", 1, func(i int) { run("new_order", newOrders[i], core.TierLocked) })
	payments := draw(func(int) any { return gen.PaymentArgs(r) })
	p.us("core", "core.payment_us", 1, func(i int) { run("payment", payments[i], core.TierLocked) })
	// A delivery takes one undelivered order from each district, so each
	// timed delivery is preceded by as many untimed new-orders as it will
	// consume; otherwise the backlog runs dry and the probe times a no-op.
	deliveries := draw(func(int) any { return gen.DeliveryArgs(r) })
	p.out["core.delivery_us"] = p.measure("core", "core.delivery_us", 1,
		func(int) {
			for d := 0; d < scale.Districts; d++ {
				run("new_order", gen.NewOrderArgs(r), core.TierLocked)
			}
		},
		func(i int) { run("delivery", deliveries[i], core.TierLocked) }) / 1e3
	orderStatus := draw(func(int) any { return gen.OrderStatusArgs(r) })
	stockLevel := draw(func(i int) any { return gen.StockLevelArgs(r, i%terminals) })
	p.us("core", "core.order_status_us", 1, func(i int) { run("order_status", orderStatus[i], core.TierLocked) })
	p.us("core", "core.stock_level_us", 1, func(i int) { run("stock_level", stockLevel[i], core.TierLocked) })
	p.us("core", "core.order_status_snapshot_us", 1, func(i int) { run("order_status", orderStatus[i], core.TierSnapshot) })
	p.us("core", "core.stock_level_snapshot_us", 1, func(i int) { run("stock_level", stockLevel[i], core.TierSnapshot) })
	if firstErr != nil {
		return failf("core: %w", firstErr)
	}
	return tb.audit(tb.holes.Holes())
}

// probeRecover prices restart: the standard mix runs against a disk-backed
// log, the log takes a simulated crash, and the clock covers reopening the
// segment directory plus RecoverLog over a freshly loaded database. accd
// does not recover an existing -wal-dir at start-up, which is why durability
// is probed here and not end to end. Every acknowledged commit was forced
// before it was acknowledged, so recovery must find exactly as many.
func (p *prober) probeRecover() error {
	dir, err := os.MkdirTemp(filepath.Join(p.root, outDir), "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scale := tpcc.DefaultScale()

	db, err := loadDB(p.seed, scale)
	if err != nil {
		return err
	}
	log1, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	tb, err := newTestbed(db, scale, core.WithWaitTimeout(10*time.Second), core.WithWAL(log1))
	if err != nil {
		log1.Close()
		return err
	}
	gen := tpcc.NewRemoteWorkload(nil, tpcc.DefaultWorkloadConfig(scale))
	r := p.rng(3)
	txns := min(2000, p.maxIter)
	var runErr error
	for i := 0; i < txns && runErr == nil; i++ {
		name, args := gen.DrawArgs(r, i%terminals)
		runErr = checkOutcome(name, args, tb.run(context.Background(), name, args, core.TierLocked))
	}
	acked := tb.eng.Snapshot()
	log1.Crash()
	tb.close()
	log1.Close()
	if runErr != nil {
		return failf("recover: pre-crash load: %w", runErr)
	}

	db2, err := loadDB(p.seed, scale) // the archive copy recovery starts from; not timed
	if err != nil {
		return err
	}
	id := p.tr.begin(p.parent, "core", "core.recover_ms_per_ktxn")
	start := time.Now()
	log2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log2.Close()
	tb2, err := newTestbed(db2, scale, core.WithWaitTimeout(10*time.Second), core.WithWAL(log2))
	if err != nil {
		return err
	}
	defer tb2.close()
	res, err := tb2.eng.RecoverLog(log2)
	took := time.Since(start)
	p.tr.end(id, txns)
	if err != nil {
		return failf("recover: %w", err)
	}
	if uint64(res.Committed) != acked.Commits {
		return failf("recover: %d commits acknowledged before the crash, %d recovered", acked.Commits, res.Committed)
	}
	if err := tb2.audit(tpcc.HolesFromRecovery(res)); err != nil {
		return err
	}
	p.out["core.recover_ms_per_ktxn"] = took.Seconds() * 1e3 / (float64(txns) / 1e3)
	return nil
}

// engineReady returns a hook for experiment.Config.OnEngine, which is called
// once the engine is built and before any load: it notes when set-up ended.
func engineReady(at *time.Time) func(*core.Engine) {
	return func(*core.Engine) { *at = time.Now() }
}

// buildPartition returns the engine constructor partition.New calls once per
// partition: partition p's shard of the database with the partition-aware
// TPC-C types, on a memory log.
func buildPartition(seed int64, scale tpcc.Scale, parts int) func(p int) (*core.Engine, error) {
	return func(p int) (*core.Engine, error) {
		db := core.NewDB()
		if err := tpcc.CreateSchema(db); err != nil {
			return nil, err
		}
		if err := tpcc.LoadPartition(db, scale, seed, p, parts); err != nil {
			return nil, err
		}
		types := tpcc.BuildTypes()
		eng := core.New(db, types.Tables,
			core.WithWaitTimeout(10*time.Second),
			core.WithEngineLabel(fmt.Sprintf("partition %d", p)))
		if _, err := tpcc.RegisterPartitioned(eng, types, scale, parts); err != nil {
			eng.Close()
			return nil, err
		}
		return eng, nil
	}
}
