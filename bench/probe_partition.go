package main

import (
	"time"

	"accdb/internal/partition"
	"accdb/internal/tpcc"
)

// probePartition prices the router and the multi-shot coordinator on an
// in-memory four-partition set: what a single-partition payment pays for
// going through Set.Run instead of straight to its home engine, and what a
// new-order with a remote supply line costs end to end (decision record,
// remote shot, home commit). This file is the only one that calls into
// internal/partition.
func (p *prober) probePartition() error {
	const parts = 4
	scale := tpcc.DefaultScale()
	scale.Warehouses = parts
	set, err := partition.New(parts, buildPartition(p.seed, scale, parts))
	if err != nil {
		return failf("partition: %w", err)
	}
	defer set.Close()
	tpcc.InstallRoutes(set)

	wcfg := tpcc.DefaultWorkloadConfig(scale)
	wcfg.RemotePercent = 100
	wcfg.RollbackPercent = 0
	gen := tpcc.NewRemoteWorkload(nil, wcfg)
	r := p.rng(6)
	var fail error
	check := func(name string, args any, err error) {
		if err := checkOutcome(name, args, err); err != nil && fail == nil {
			fail = err
		}
	}

	// Routed and direct payments alternate call by call over one stream of
	// inputs, so drift in the data (history rows, balances) and in the host
	// hits both alike; the overhead is the difference of the two medians.
	payments := make([]*tpcc.PaymentArgs, p.maxIter)
	for i := range payments {
		payments[i] = gen.PaymentArgs(r)
	}
	var routed, direct []float64
	p.time("partition", "partition.single_route_overhead_ns", 1, func(i int) {
		a := payments[i]
		start := time.Now()
		if i%2 == 0 {
			err = set.Run("payment", a)
			routed = append(routed, float64(time.Since(start)))
		} else {
			err = set.Engine(tpcc.PartitionOf(a.WID, parts)).Run("payment", a)
			direct = append(direct, float64(time.Since(start)))
		}
		check("payment", a, err)
	})
	if len(direct) == 0 {
		return failf("partition: the probe budget allowed fewer than two payments")
	}
	p.out["partition.single_route_overhead_ns"] = median(routed) - median(direct)

	before := set.Snapshot()
	p.us("partition", "partition.cross_new_order_us", 1, func(int) {
		a := gen.NewOrderArgs(r)
		check("new_order", a, set.Run("new_order", a))
	})
	if fail != nil {
		return failf("partition: %w", fail)
	}
	if after := set.Snapshot(); after.CrossCommitted == before.CrossCommitted {
		return failf("partition: no new-order crossed partitions")
	}
	return nil
}
