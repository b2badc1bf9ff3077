package experiment

import (
	"fmt"
	"strings"
	"testing"

	"accdb/internal/fault"
)

// TestCrashMatrix is the recovery acceptance test: for EVERY registered fault
// injection point, crash a TPC-C run there, recover through Set.Recover, and
// require the consistency battery to hold on the recovered state — and to
// keep holding after the recovered set re-runs load. Generic (wal.*, core.*)
// points crash the default one-partition deployment; the partition.coord.*
// points — after the decision record, between shots, after the home commit,
// mid-compensation — need the cross-partition path and crash four partitions
// under a 25% remote-warehouse share, as does one generic point, because a
// plain log-layer crash inside one partition must recover just as well when
// the workload spans partitions.
func TestCrashMatrix(t *testing.T) {
	points := fault.Points()
	if len(points) < 15 {
		t.Fatalf("expected the full fault-point catalog, found %d: %v", len(points), points)
	}
	type matrixCase struct {
		point      fault.Info
		partitions int // 0: RunCrash's default for the point (1, or 4 for partition.coord.*)
	}
	var cases []matrixCase
	for _, p := range points {
		cases = append(cases, matrixCase{p, 0})
		if p.Name == "core.commit.force.crash" {
			cases = append(cases, matrixCase{p, 4})
		}
	}
	if len(cases) != len(points)+1 {
		t.Fatalf("the generic 4-partition case is missing: %d cases for %d points", len(cases), len(points))
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
			if res.RerunCompleted == 0 {
				t.Error("recovered set completed no transactions")
			}
			t.Logf("committed=%d compensated=%d forward=%d undone=%d torn=%v rerun=%d",
				res.Committed, res.Compensated, res.ForwardDriven, res.Undone, res.TornTail, res.RerunCompleted)
		})
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
