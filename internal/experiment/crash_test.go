package experiment

import (
	"fmt"
	"strings"
	"testing"

	"accdb/internal/fault"
	"accdb/internal/spi"
	"accdb/internal/spi/spitest"
)

// frozenBackend is the selected backend behind spitest.Frozen.
var frozenBackend, verifyFrozen = spitest.FrozenBackend(spi.DefaultBackend())

// TestCrashMatrix is the recovery acceptance test: for EVERY registered fault
// injection point, crash a TPC-C run there, recover through Set.Recover, and
// require the consistency battery to hold on the recovered state, every
// transaction the doomed run acknowledged to be in it — and the battery to
// keep holding after the recovered set re-runs load. Generic (wal.*, core.*)
// points crash the default one-partition deployment; the partition.coord.*
// points — after the decision record, between shots, after the home commit,
// mid-compensation — need the cross-partition path and crash four partitions
// under a 25% remote-warehouse share, and so does every generic point a
// second time, because a plain log-layer crash inside one partition must
// recover just as well when the workload spans partitions.
//
// The whole matrix runs over checking stores (spitest.Frozen): the doomed
// run, recovery's redo and undo and the re-run share row images with the
// store, and none may change after it crossed the seam.
func TestCrashMatrix(t *testing.T) {
	t.Setenv(spi.EnvBackend, frozenBackend)
	points := fault.Points()
	if len(points) < 15 {
		t.Fatalf("expected the full fault-point catalog, found %d: %v", len(points), points)
	}
	type matrixCase struct {
		point      fault.Info
		partitions int // 0: RunCrash's default for the point (1, or 4 for partition.coord.*)
	}
	var cases []matrixCase
	generic := 0
	for _, p := range points {
		cases = append(cases, matrixCase{p, 0})
		if !strings.HasPrefix(p.Name, "partition.coord.") {
			cases = append(cases, matrixCase{p, 4})
			generic++
		}
	}
	if generic < 11 {
		t.Fatalf("the generic 4-partition cases are missing: %d of them for %d points", generic, len(points))
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/p%d", c.point.Name, c.partitions), func(t *testing.T) {
			res, err := RunCrash(CrashConfig{
				Point:      c.point,
				Seed:       42,
				WALDir:     t.TempDir(),
				Partitions: c.partitions,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Fired {
				t.Fatalf("point %s never fired within the op budget", c.point.Name)
			}
			for i, v := range res.Violations {
				if i > 5 {
					t.Fatalf("... and %d more", len(res.Violations)-i)
				}
				t.Errorf("recovered state: %v", v)
			}
			for i, v := range res.RerunViolations {
				if i > 5 {
					t.Fatalf("... and %d more", len(res.RerunViolations)-i)
				}
				t.Errorf("after re-run: %v", v)
			}
			for i, l := range res.LostAcks {
				if i > 5 {
					t.Fatalf("... and %d more", len(res.LostAcks)-i)
				}
				t.Errorf("acknowledged but lost: %s", l)
			}
			if res.RerunCompleted == 0 {
				t.Error("recovered set completed no transactions")
			}
			if err := verifyFrozen(); err != nil {
				t.Error(err)
			}
			t.Logf("committed=%d compensated=%d forward=%d undone=%d torn=%v rerun=%d",
				res.Committed, res.Compensated, res.ForwardDriven, res.Undone, res.TornTail, res.RerunCompleted)
		})
	}
}

// TestCrashKeepsAcks crashes late — after hundreds of transactions were
// acknowledged — at the instants where a reply could run ahead of the disk:
// locks retired with the record still in the buffer, the group-commit window,
// the sync itself, and a sync that fails. Every acknowledged payment,
// new-order and delivery must be in the recovered state, with one partition
// and with four.
func TestCrashKeepsAcks(t *testing.T) {
	for _, c := range []struct {
		point string
		nth   uint64
	}{
		{"core.retire.crash", 400},
		{"wal.group.force.crash", 40},
		{"wal.sync.crash", 40},
		{"wal.sync.error", 40},
	} {
		for _, parts := range []int{1, 4} {
			c, parts := c, parts
			t.Run(fmt.Sprintf("%s/p%d", c.point, parts), func(t *testing.T) {
				var info fault.Info
				for _, p := range fault.Points() {
					if p.Name == c.point {
						info = p
					}
				}
				res, err := RunCrash(CrashConfig{
					Point: info, Nth: c.nth, Seed: 11, WALDir: t.TempDir(), Partitions: parts, RerunOps: 50,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Fired {
					t.Fatalf("point %s never fired within the op budget", c.point)
				}
				if res.Acked < 20 {
					t.Fatalf("only %d transactions acknowledged before the crash: the case checks nothing", res.Acked)
				}
				for _, l := range res.LostAcks {
					t.Errorf("acknowledged but lost: %s", l)
				}
				for _, v := range res.Violations {
					t.Errorf("recovered state: %v", v)
				}
				t.Logf("acked=%d committed=%d compensated=%d", res.Acked, res.Committed, res.Compensated)
			})
		}
	}
}

// TestCrashCoordPointNeedsPartitions: a coordinator point asked of the
// one-partition deployment is a usage error, not a case that quietly "did
// not fire".
func TestCrashCoordPointNeedsPartitions(t *testing.T) {
	_, err := RunCrash(CrashConfig{
		Point:      fault.Info{Name: "partition.coord.shot.crash", Effect: fault.Crash},
		Seed:       1,
		WALDir:     t.TempDir(),
		Partitions: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "one partition") {
		t.Fatalf("err = %v, want a refusal naming the one-partition case", err)
	}
}

// TestCrashMatrixDeterministic replays one case twice and requires identical
// recovery outcomes — the property that makes a failing matrix case
// debuggable from its (point, seed, nth) triple.
func TestCrashMatrixDeterministic(t *testing.T) {
	run := func() *CrashResult {
		res, err := RunCrash(CrashConfig{
			Point:  fault.Info{Name: "core.commit.force.crash", Effect: fault.Crash},
			Seed:   7,
			Nth:    2,
			WALDir: t.TempDir(),
			// One terminal: scheduling nondeterminism off, so the doomed
			// run's log — and hence recovery — is bit-reproducible.
			Terminals: 1,
			RerunOps:  50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.Fired || !b.Fired {
		t.Fatalf("point did not fire: %v %v", a.Fired, b.Fired)
	}
	if a.Committed != b.Committed || a.Compensated != b.Compensated {
		t.Fatalf("same (point, seed, nth) diverged: %+v vs %+v", a, b)
	}
}
