package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"accdb/internal/core"
	"accdb/internal/experiment"
	"accdb/internal/tpcc"
	"accdb/pkg/accclient"
)

// runNet drives the TPC-C closed loop against a remote accd instead of an
// in-process engine: each terminal's transactions go through a shared
// accclient pool, so the measured path includes the wire protocol,
// admission control, and the client's retry policy. The server owns the
// database, so no consistency check runs here — accd verifies it at drain.
func runNet(addr string, terminals, pool int, duration, warmup, think time.Duration, seed int64, tier core.ReadTier, warehouses, remotePct int, readHeavy, verbose bool) error {
	cli, err := accclient.Dial(addr, accclient.WithPoolSize(pool))
	if err != nil {
		return err
	}
	defer cli.Close()

	scale := tpcc.DefaultScale()
	if warehouses > scale.Warehouses {
		// Must match the server: a partitioned accd widens its warehouse
		// count to its partition count, and the generated WIDs have to cover
		// it for any transaction to leave partition 0.
		scale.Warehouses = warehouses
	}
	cfg := tpcc.DefaultWorkloadConfig(scale)
	cfg.RemotePercent = remotePct
	cfg.ReadTier = tier
	if readHeavy {
		cfg.Mix = tpcc.ReadHeavyMix()
	}
	w := tpcc.NewRemoteWorkload(func(name string, args any) error {
		return cli.Run(context.Background(), name, args)
	}, cfg)
	w.SetReadRunner(func(name string, args any, t core.ReadTier) error {
		return cli.RunTier(context.Background(), name, args, t)
	})

	fmt.Printf("== network TPC-C against %s: %d terminals, pool %d, read tier %s ==\n", addr, terminals, pool, tier)
	rec, perSec := experiment.Terminals{N: terminals, Think: think, Seed: seed}.Measure(w, warmup, duration)

	fmt.Printf("throughput %.1f txn/s  %s\n", perSec, rec.Total())
	st := cli.Stats()
	fmt.Printf("client: requests=%d attempts=%d retries=%d transport_errors=%d\n",
		st.Requests, st.Attempts, st.Retries, st.TransportErrors)
	if verbose {
		byType := rec.ByType()
		names := make([]string, 0, len(byType))
		for name := range byType {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-12s %s\n", name, byType[name])
		}
	}
	return nil
}
