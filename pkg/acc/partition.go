// Scale-out vocabulary: the public surface over internal/partition. A
// Cluster is n independent engines behind a deterministic router and a
// multi-shot commit coordinator (DESIGN.md §16); NewCluster builds one from
// the same BuildFunc loop accd uses, sized by WithPartitions.
package acc

import (
	"accdb/internal/partition"
	"accdb/internal/trace"
)

// Cluster is a partitioned engine: n engines behind a key→partition router
// and a multi-shot commit coordinator for the transactions that span
// partitions. Single-partition transactions route whole to their home
// engine at single-engine cost; cross-partition transactions run as
// per-partition shots with a durable decision record and §3.4 compensation
// on abort.
type Cluster = partition.Set

// BuildFunc constructs one partition's engine: its own DB over its own
// backend instance, its own WAL, its transaction types registered. The
// Cluster owns the returned engines and closes them with Close.
type BuildFunc = partition.BuildFunc

// Shot is one per-partition unit of a cross-partition transaction.
type Shot = partition.Shot

// Route declares how instances of one transaction type map onto
// partitions: a home function, and an optional split into remote shots.
type Route = partition.Route

// UndoSpec declares the compensating undo of a shot type, in the §3.4
// saga style: the transaction type that semantically reverses a committed
// shot, and how to derive its arguments.
type UndoSpec = partition.UndoSpec

// ClusterStats aggregates a Cluster's router and coordinator counters.
type ClusterStats = partition.Stats

// ClusterOption configures NewCluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	n    int
	opts []partition.Option
}

// WithPartitions sets the partition count, at least 1. Without it,
// NewCluster builds one partition.
func WithPartitions(n int) ClusterOption {
	return func(c *clusterConfig) { c.n = n }
}

// WithClusterTracer attaches a trace bus to the coordinator's own events
// (coord.*/shot.* kinds); the per-partition engines carry their own
// tracers, attached in the BuildFunc.
func WithClusterTracer(t *trace.Tracer) ClusterOption {
	return func(c *clusterConfig) {
		c.opts = append(c.opts, partition.WithTracer(t))
	}
}

// NewCluster builds a Cluster, constructing each partition's engine with
// build. The partition count comes from WithPartitions, 1 without it: a
// one-partition Cluster is the default deployment, where every transaction
// takes the direct path to its one engine.
func NewCluster(build BuildFunc, opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{n: 1}
	for _, apply := range opts {
		apply(&cfg)
	}
	return partition.New(cfg.n, build, cfg.opts...)
}
