package main

import (
	"time"

	"accdb/internal/spi"
	"accdb/internal/tpcc"
)

// probeStorage prices the default backend's table operations on the loaded
// TPC-C tables: point reads, updates and version publication on stock (the
// row every new-order line rewrites), inserts and deletes on order_line, and
// index scans over the new_order backlog index. Rows and keys come from the
// loaded database, so sizes are the workloads' sizes. It goes through the
// spi.Table interface only.
func (p *prober) probeStorage() error {
	scale := tpcc.DefaultScale()
	store, err := loadStore(p.seed, scale)
	if err != nil {
		return err
	}
	stock, lines, backlog := store.Table(tpcc.TStock), store.Table(tpcc.TOrderLine), store.Table(tpcc.TNewOrder)
	if stock == nil || lines == nil || backlog == nil {
		return failf("storage: the loaded store lacks a TPC-C table")
	}
	// The load inserted every row, which chains it to a "did not exist
	// before" tombstone; an engine drops those when it attaches, so the probe
	// does too.
	for _, t := range []spi.Table{stock, lines, backlog} {
		t.ResetVersions()
	}
	r := p.rng(5)
	keys := make([]spi.Key, p.maxIter)
	for i := range keys {
		keys[i] = spi.EncodeKey(spi.I64(1), spi.I64(1+r.Int63n(int64(scale.Items))))
	}
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	quantity := stock.Schema().MustCol("s_quantity")

	p.ns("storage", "storage.get_ns", 100, func(i int) {
		_, err := stock.Get(keys[i])
		check(err)
	})
	rows := make([]spi.Row, len(keys))
	for i, k := range keys {
		row, err := stock.Get(k)
		if err != nil {
			return failf("storage: %w", err)
		}
		row[quantity] = spi.I64(row[quantity].Int64() + 1)
		rows[i] = row
	}
	p.ns("storage", "storage.update_ns", 100, func(i int) {
		_, err := stock.Update(keys[i], rows[i])
		check(err)
	})

	// Inserts add lines to an order number past anything loaded; the delete
	// probe removes exactly as many of them again.
	template, err := firstRow(lines)
	if err != nil {
		return err
	}
	order := lines.Schema().MustCol("ol_o_id")
	number := lines.Schema().MustCol("ol_number")
	newLines := make([]spi.Row, p.maxIter)
	newKeys := make([]spi.Key, p.maxIter)
	for i := range newLines {
		row := append(spi.Row(nil), template...)
		row[order], row[number] = spi.I64(1_000_000), spi.I64(int64(i))
		newLines[i] = row
		newKeys[i] = spi.EncodeKey(row[0], row[1], row[order], row[number])
	}
	inserted := 0
	p.ns("storage", "storage.insert_ns", 100, func(i int) {
		check(lines.Insert(newLines[i]))
		inserted = i + 1
	})
	deletes := *p
	deletes.maxIter = inserted
	deletes.ns("storage", "storage.delete_ns", 100, func(i int) {
		_, err := lines.Delete(newKeys[i])
		check(err)
	})

	// Versions: every update above seeded a chain; publish stamps new images
	// on them, as-of reads resolve through them, prune reclaims them.
	csn := spi.CSN(0)
	p.ns("storage", "storage.publish_version_ns", 100, func(i int) {
		csn++
		stock.PublishVersion(keys[i], rows[i], rows[i], csn)
	})
	p.ns("storage", "storage.get_asof_ns", 100, func(i int) {
		_, err := stock.GetAsOf(keys[i], csn/2)
		check(err)
	})

	districts := int64(scale.Districts)
	perRow := func(name string, scan func(eq []spi.Value, visit func(spi.Key, spi.Row) bool) error) {
		rows, scans := 0, 0
		visit := func(spi.Key, spi.Row) bool { rows++; return true }
		perScan := p.time("storage", name, 1, func(i int) {
			scans++
			check(scan([]spi.Value{spi.I64(1), spi.I64(1 + int64(i)%districts)}, visit))
		})
		p.out[name] = perScan * float64(scans) / float64(max(rows, 1))
	}
	perRow("storage.index_scan_ns_per_row", func(eq []spi.Value, visit func(spi.Key, spi.Row) bool) error {
		return backlog.IndexScan(tpcc.IdxNewOrderByDist, eq, visit)
	})
	perRow("storage.index_scan_asof_ns_per_row", func(eq []spi.Value, visit func(spi.Key, spi.Row) bool) error {
		return backlog.IndexScanAsOf(tpcc.IdxNewOrderByDist, eq, spi.MaxCSN, visit)
	})

	id := p.tr.begin(p.parent, "storage", "storage.prune_ns_per_version")
	start := time.Now()
	pruned, _ := stock.PruneVersions(csn)
	took := time.Since(start)
	p.tr.end(id, pruned)
	if pruned == 0 {
		return failf("storage: pruning at the newest CSN reclaimed no version")
	}
	p.out["storage.prune_ns_per_version"] = float64(took) / float64(pruned)
	if fail != nil {
		return failf("storage: %w", fail)
	}
	return nil
}

// firstRow returns any row of t.
func firstRow(t spi.Table) (spi.Row, error) {
	var row spi.Row
	t.Scan(func(_ spi.Key, r spi.Row) bool { row = r; return false })
	if row == nil {
		return nil, failf("storage: table %s is empty", t.Schema().Name)
	}
	return row, nil
}
