package tpcc

import (
	"sort"

	"accdb/internal/core"
	"accdb/internal/partition"
	"accdb/internal/spi"
)

// Partitioned TPC-C (DESIGN.md §16). Warehouses stripe over partitions
// (PartitionOf); every table row lives with its warehouse except item,
// which is read-only and replicated into every partition by the loader. A
// new-order whose supply warehouses all share the home partition runs
// exactly as before; one with remote supply lines becomes a cross-partition
// transaction — the home transaction enters the order and its lines and
// updates local stock, while each remote partition's stock updates run as
// one no_stock shot. The shot's compensating undo (no_stock_undo) restocks
// from the quantities the shot actually took, recorded in its work area.

// noRemote is the NOR step: the hook the partition coordinator planted in
// the context runs the instance's remote shots while this transaction holds
// its exposure marks. On a single engine (no coordinator) it is a no-op, so
// the type definition runs unchanged outside a partitioned deployment.
func (reg *Registration) noRemote(tc *core.Ctx) error {
	hook, ok := partition.HookFrom(tc.Context())
	if !ok {
		return nil
	}
	return hook()
}

// NoStockArgs parameterizes one no_stock shot: the remote-partition supply
// lines of a single new-order that land on one partition.
type NoStockArgs struct {
	// WID is the order's home warehouse (diagnostics; every line's SupplyW
	// names the warehouse actually updated).
	WID   int64
	Lines []OrderLineReq

	// Work area: per line, the stock quantity actually deducted — what the
	// undo must restore.
	Filled []int64
}

// noStockType is the remote-stock shot: deplete each line's stock by the
// TPC-C rule, recording the quantities taken. Single-step, so it needs no
// compensation of its own — the global rollback runs no_stock_undo instead.
func (reg *Registration) noStockType() *core.TxnType {
	t := reg.Types
	return &core.TxnType{
		Name:       "no_stock",
		ID:         t.NoStock,
		Steps:      []core.Step{{Name: "NOS", Type: t.NOS, Body: reg.noStockApply}},
		AppendArgs: noStockCodec.Encode,
		DecodeArgs: noStockCodec.DecodeNew,
	}
}

func (reg *Registration) noStockApply(tc *core.Ctx) error {
	a := tc.Args().(*NoStockArgs)
	// Item order, like the compensating restock: concurrent shots then take
	// their stock locks in one global order within the partition.
	for _, i := range lineOrder(a.Lines) {
		taken, err := takeStock(tc, a.Lines[i])
		if err != nil {
			return err
		}
		a.Filled[i] = taken
	}
	return nil
}

// noStockUndoType semantically reverses a committed no_stock shot: restore
// the exact quantities its work area says were taken.
func (reg *Registration) noStockUndoType() *core.TxnType {
	t := reg.Types
	return &core.TxnType{
		Name:       "no_stock_undo",
		ID:         t.NoStockUndo,
		Steps:      []core.Step{{Name: "NOSU", Type: t.NOSU, Body: reg.noStockRevert}},
		AppendArgs: noStockCodec.Encode,
		DecodeArgs: noStockCodec.DecodeNew,
	}
}

func (reg *Registration) noStockRevert(tc *core.Ctx) error {
	a := tc.Args().(*NoStockArgs)
	for _, i := range lineOrder(a.Lines) {
		if err := restock(tc, a.Lines[i], a.Filled[i]); err != nil {
			return err
		}
	}
	return nil
}

// InstallRoutes declares the TPC-C routing on a partition set: every
// transaction type homes on its warehouse's partition, and new-order splits
// its remote-partition supply lines into one no_stock shot per partition,
// undone by no_stock_undo. Call after RegisterPartitioned ran on each of
// the set's engines.
func InstallRoutes(set *partition.Set) {
	parts := set.Partitions()
	byWID := func(wid int64) int { return PartitionOf(wid, parts) }
	set.SetRoute("new_order", partition.Route{
		Home: func(args any) int { return byWID(args.(*NewOrderArgs).WID) },
		Split: func(args any) []partition.Shot {
			a := args.(*NewOrderArgs)
			home := byWID(a.WID)
			grouped := make(map[int]*NoStockArgs)
			for _, l := range a.Lines {
				p := byWID(l.SupplyW)
				if p == home {
					continue
				}
				g := grouped[p]
				if g == nil {
					g = &NoStockArgs{WID: a.WID}
					grouped[p] = g
				}
				g.Lines = append(g.Lines, l)
			}
			if len(grouped) == 0 {
				return nil
			}
			// Ascending partition order: every cross-partition new-order
			// visits partitions in the same sequence.
			ps := make([]int, 0, len(grouped))
			for p := range grouped {
				ps = append(ps, p)
			}
			sort.Ints(ps)
			shots := make([]partition.Shot, 0, len(ps))
			for _, p := range ps {
				g := grouped[p]
				g.Filled = make([]int64, len(g.Lines))
				shots = append(shots, partition.Shot{Partition: p, Type: "no_stock", Args: g})
			}
			return shots
		},
	})
	set.SetRoute("payment", partition.Route{
		Home: func(args any) int { return byWID(args.(*PaymentArgs).WID) },
	})
	set.SetRoute("delivery", partition.Route{
		Home: func(args any) int { return byWID(args.(*DeliveryArgs).WID) },
	})
	set.SetRoute("order_status", partition.Route{
		Home: func(args any) int { return byWID(args.(*OrderStatusArgs).WID) },
	})
	set.SetRoute("stock_level", partition.Route{
		Home: func(args any) int { return byWID(args.(*StockLevelArgs).WID) },
	})
	// The forward shot's args double as the undo's: its work area carries
	// the filled quantities by the time an undo can run.
	set.SetUndo("no_stock", partition.UndoSpec{Type: "no_stock_undo"})
}

// LoadPartition populates one partition's database: the full item table
// (replicated, read-only) plus every warehouse the partition owns. With one
// partition it is exactly Load.
func LoadPartition(db *core.DB, s Scale, seed int64, part, parts int) error {
	if parts <= 1 {
		return Load(db, s, seed)
	}
	return loadWarehouses(db, s, seed, func(w int) bool {
		return PartitionOf(int64(w), parts) == part
	})
}

// CheckConsistencyPartitioned evaluates the full consistency battery over a
// partitioned deployment: each check's aggregation runs across every
// partition's store (rows are disjoint by warehouse), which is what lets
// condition 13 tie order lines in one partition to stock in another.
func CheckConsistencyPartitioned(dbs []*core.DB, s Scale, holes map[DistrictKey]map[int64]bool) []error {
	cats := make([]spi.Store, len(dbs))
	for i, db := range dbs {
		cats[i] = db.Store()
	}
	return runChecks(&checker{cats: cats, scale: s, holes: holes})
}
