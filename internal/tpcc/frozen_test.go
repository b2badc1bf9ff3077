package tpcc

import (
	"fmt"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/spi"
	"accdb/internal/spi/spitest"
)

// frozenBackend is the selected backend behind spitest.Frozen.
var frozenBackend, verifyFrozen = spitest.FrozenBackend(spi.DefaultBackend())

// TestFrozenRows runs the five TPC-C types — compensated new-orders,
// deadlock-victim step undos and snapshot-tier readers among them — over
// checking stores, at one partition and at four with remote new-orders, and
// requires that no row changed after it crossed the store seam: a step body
// changes a row only inside an Update/UpdateWhere closure, on its private
// copy. Under -race a violation is a reported race as well.
func TestFrozenRows(t *testing.T) {
	t.Setenv(spi.EnvBackend, frozenBackend)
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			st, err := NewStack(StackConfig{
				Partitions: parts,
				Scale:      smallScale(),
				Seed:       42,
				Engine:     []core.Option{core.WithMode(core.ModeACC), core.WithWaitTimeout(20 * time.Second)},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			cfg := DefaultWorkloadConfig(st.Scale)
			cfg.RollbackPercent = 15
			cfg.ReadTier = core.TierSnapshot
			cfg.DistrictSkew = 0.5 // a hot district: deadlocks, so step undos
			if parts > 1 {
				cfg.RemotePercent = 25
			}
			w := NewWorkload(st.Set, cfg)
			// Rounds of the concurrent mix until it has shown every path the
			// test is about; the small scale makes that the first round or two.
			var s core.Stats
			for round := int64(0); round < 30; round++ {
				runMix(t, nil, w, 8*parts, 60, 100*round+int64(parts))
				s = core.Stats{}
				for _, e := range st.Set.Engines() {
					es := e.Snapshot()
					s.Commits += es.Commits
					s.Compensations += es.Compensations
					s.StepRetries += es.StepRetries
				}
				if s.Compensations > 0 && s.StepRetries > 0 {
					break
				}
			}
			if s.Compensations == 0 || s.StepRetries == 0 {
				t.Fatalf("the mix never compensated (%d) or never undid a deadlock-victim step (%d)", s.Compensations, s.StepRetries)
			}
			for _, e := range st.Set.Engines() {
				e.ReapVersions()
			}
			for _, err := range st.Check(w.Holes()) {
				t.Error(err)
			}
			if err := verifyFrozen(); err != nil {
				t.Error(err)
			}
			t.Logf("commits=%d compensations=%d step-retries=%d", s.Commits, s.Compensations, s.StepRetries)
		})
	}
}
