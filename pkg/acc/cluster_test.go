package acc_test

import (
	"testing"
	"time"

	"accdb/internal/interference"
	"accdb/internal/spi"
	"accdb/pkg/acc"
)

type bumpArgs struct {
	Account int64
	Home    int
}

// buildBump returns a BuildFunc where each partition owns an accounts table
// holding one row per partition-local account id.
func buildBump(t *testing.T) acc.BuildFunc {
	return func(p int) (*acc.Engine, error) {
		db := acc.NewDB()
		accounts := db.MustCreateTable(spi.MustSchema("accounts", []spi.Column{
			{Name: "id", Kind: spi.KindInt},
			{Name: "balance", Kind: spi.KindInt},
		}, "id"))
		if err := accounts.Insert(spi.Row{spi.Int(p), spi.I64(100)}); err != nil {
			return nil, err
		}
		b := interference.NewBuilder()
		txnBump := b.TxnType("bump", 1)
		stBump := b.StepType("bump")
		eng := acc.New(db, b.Build(),
			acc.WithMode(acc.ModeACC),
			acc.WithWaitTimeout(5*time.Second),
		)
		eng.MustRegister(&acc.TxnType{
			Name: "bump",
			ID:   txnBump,
			Steps: []acc.Step{{
				Name: "bump", Type: stBump,
				Body: func(tc *acc.Ctx) error {
					a := tc.Args().(*bumpArgs)
					return tc.Update("accounts", []spi.Value{spi.I64(a.Account)},
						func(row spi.Row) error {
							row[1] = spi.I64(row[1].Int64() + 1)
							return nil
						})
				},
			}},
		})
		return eng, nil
	}
}

// TestClusterRouting drives the public scale-out surface: NewCluster with
// WithPartitions builds n engines, a Route's Home function steers each
// instance to its partition, and the direct path shows up in ClusterStats.
func TestClusterRouting(t *testing.T) {
	c, err := acc.NewCluster(buildBump(t), acc.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Partitions(); got != 2 {
		t.Fatalf("partitions = %d, want 2", got)
	}
	c.SetRoute("bump", acc.Route{
		Home: func(args any) int { return args.(*bumpArgs).Home },
	})

	for p := 0; p < 2; p++ {
		if err := c.Run("bump", &bumpArgs{Account: int64(p), Home: p}); err != nil {
			t.Fatalf("bump on partition %d: %v", p, err)
		}
	}
	var st acc.ClusterStats = c.Snapshot()
	if st.SingleRouted != 2 || st.CrossStarted != 0 {
		t.Fatalf("stats = %+v, want 2 single-routed, 0 cross", st)
	}
	// Each partition's own row moved; the other partition never saw it.
	for p := 0; p < 2; p++ {
		eng := c.Engine(p)
		var bal int64
		err := eng.RunLegacy("read", func(tc *acc.Ctx) error {
			return tc.Scan("accounts", func(row spi.Row) error {
				bal = row[1].Int64()
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if bal != 101 {
			t.Fatalf("partition %d balance = %d, want 101", p, bal)
		}
	}
}

// TestClusterDefaultsToOnePartition: WithPartitions is the one way to size
// a cluster. Without it NewCluster builds one partition, whatever the process
// environment says (ACCDB_PARTITIONS once sized it), and a count below one is
// refused, never coerced.
func TestClusterDefaultsToOnePartition(t *testing.T) {
	t.Setenv("ACCDB_PARTITIONS", "3")
	c, err := acc.NewCluster(buildBump(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Partitions(); got != 1 {
		t.Errorf("partitions = %d, want 1", got)
	}
	c.Close()
	for _, n := range []int{0, -1} {
		if c, err := acc.NewCluster(buildBump(t), acc.WithPartitions(n)); err == nil {
			c.Close()
			t.Errorf("WithPartitions(%d) accepted", n)
		}
	}
}
