// Scale-out vocabulary: the public surface over internal/partition. A
// Cluster is n independent engines behind a deterministic router and a
// multi-shot commit coordinator (DESIGN.md §16); NewCluster builds one from
// the same BuildFunc loop accd uses, sized by WithPartitions or the
// ACCDB_PARTITIONS environment variable.
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

// WithPartitions sets the partition count. Without it, NewCluster sizes
// the cluster from the ACCDB_PARTITIONS environment variable (unset means
// one partition; an invalid value is an error).
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

// EnvPartitions reads ACCDB_PARTITIONS: the partition count NewCluster and
// accd default to. Unset or empty means 1; anything but a positive integer
// is an error.
func EnvPartitions() (int, error) { return partition.EnvPartitions() }

// NewCluster builds a Cluster, constructing each partition's engine with
// build. The partition count comes from WithPartitions, or failing that
// from ACCDB_PARTITIONS. A one-partition Cluster is the default deployment:
// every transaction takes the direct path to its one engine.
func NewCluster(build BuildFunc, opts ...ClusterOption) (*Cluster, error) {
	n, envErr := partition.EnvPartitions()
	cfg := clusterConfig{n: n}
	for _, apply := range opts {
		apply(&cfg)
	}
	if cfg.n == 0 && envErr != nil {
		// Nothing overrode the (zero) count a bad ACCDB_PARTITIONS left; a
		// caller that sized the cluster itself never sees this error.
		return nil, envErr
	}
	return partition.New(cfg.n, build, cfg.opts...)
}
