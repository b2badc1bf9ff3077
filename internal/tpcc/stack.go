package tpcc

import (
	"fmt"
	"path/filepath"

	"accdb/internal/core"
	"accdb/internal/partition"
	"accdb/internal/wal"
)

// StackConfig describes one TPC-C deployment. The accd server, the paper's
// Fig. 2-4 testbed (experiment.Run) and the crash matrix all stand their
// system up from it, so they measure, serve and crash the same thing.
type StackConfig struct {
	// Partitions is the engine count, at least 1. Warehouses stripe over
	// partitions by PartitionOf.
	Partitions int
	// Scale is the database cardinality; its warehouse count is widened to
	// Partitions so every engine owns at least one (Stack.Scale reports the
	// scale actually loaded).
	Scale Scale
	// Seed makes the initial database deterministic.
	Seed int64
	// WALDir, when non-empty, backs partition p's log with segment files
	// under WALDir/p<p> — one layout for every partition count, one included
	// — opened with WAL. Empty gives each partition a memory log.
	WALDir string
	// WAL configures every partition's log, memory or disk: its
	// ForceLatency is the stack's simulated force time, set here once (the
	// stack's logs ignore core.WithForceLatency).
	WAL wal.Options
	// Engine is applied to every partition's engine; the stack adds the
	// engine's own log and its "partition <p>" label.
	Engine []core.Option
}

// Stack is a loaded, registered, routed TPC-C system: a partition set of
// n ≥ 1 engines and the disk logs opened for them.
type Stack struct {
	Set   *partition.Set
	Scale Scale
	// Used lists the WAL directories that already held records when the
	// stack opened them. The transactions of a used log are not in the
	// freshly loaded database and new transaction ids restart at 1, so the
	// caller must either go on to Set.Recover (the crash harness) or refuse
	// to serve (accd).
	Used []string

	opened []*wal.Log
}

// NewStack builds the deployment: per partition, a store from the
// registered factory (spi.NewStore, through core.NewDB), schema, the
// partition's share of the initial database, its log, its engine and the
// transaction types; then the set and its TPC-C routes.
func NewStack(cfg StackConfig) (*Stack, error) {
	st := &Stack{Scale: cfg.Scale}
	if st.Scale.Warehouses < cfg.Partitions {
		st.Scale.Warehouses = cfg.Partitions
	}
	// The coordinator's coord.*/shot.* events ride the bus the engines got.
	var eopt core.Options
	for _, apply := range cfg.Engine {
		apply(&eopt)
	}
	set, err := partition.New(cfg.Partitions, func(p int) (*core.Engine, error) {
		db := core.NewDB()
		if err := CreateSchema(db); err != nil {
			return nil, err
		}
		if err := LoadPartition(db, st.Scale, cfg.Seed, p, cfg.Partitions); err != nil {
			return nil, err
		}
		var l *wal.Log
		if cfg.WALDir == "" {
			l = wal.New(cfg.WAL.ForceLatency)
		} else {
			dir := filepath.Join(cfg.WALDir, fmt.Sprintf("p%d", p))
			var err error
			if l, err = wal.Open(dir, cfg.WAL); err != nil {
				return nil, err
			}
			st.opened = append(st.opened, l)
			if len(l.Recovered()) > 0 {
				st.Used = append(st.Used, dir)
			}
		}
		opts := append(append([]core.Option(nil), cfg.Engine...),
			core.WithEngineLabel(fmt.Sprintf("partition %d", p)), core.WithWAL(l))
		types := BuildTypes()
		eng := core.New(db, types.Tables, opts...)
		if _, err := RegisterPartitioned(eng, types, st.Scale, cfg.Partitions); err != nil {
			eng.Close()
			return nil, err
		}
		return eng, nil
	}, partition.WithTracer(eopt.Tracer))
	if err != nil {
		st.closeLogs()
		return nil, err
	}
	st.Set = set
	InstallRoutes(set)
	return st, nil
}

// Logs returns every partition's log in partition order: the disk logs under
// WALDir, or the memory logs.
func (st *Stack) Logs() []*wal.Log {
	logs := make([]*wal.Log, st.Set.Partitions())
	for p := range logs {
		logs[p] = st.Set.Engine(p).Log()
	}
	return logs
}

// DBs returns every partition's database in partition order.
func (st *Stack) DBs() []*core.DB {
	dbs := make([]*core.DB, st.Set.Partitions())
	for p := range dbs {
		dbs[p] = st.Set.Engine(p).DB()
	}
	return dbs
}

// Check evaluates the TPC-C consistency battery across every partition's
// store, given the order-number holes compensated new-orders left.
func (st *Stack) Check(holes map[DistrictKey]map[int64]bool) []error {
	return CheckConsistencyPartitioned(st.DBs(), st.Scale, holes)
}

// Close closes the set (each engine forces its log) and then the disk logs
// the stack opened.
func (st *Stack) Close() error {
	err := st.Set.Close()
	if cerr := st.closeLogs(); err == nil {
		err = cerr
	}
	return err
}

func (st *Stack) closeLogs() error {
	var first error
	for _, l := range st.opened {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.opened = nil
	return first
}
