package tpcc

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/metrics"
)

// testSystem assembles a loaded TPC-C database with registered transactions.
func testSystem(t *testing.T, mode core.Mode, scale Scale, opts ...core.Option) (*core.Engine, *Workload) {
	t.Helper()
	db := core.NewDB()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := Load(db, scale, 42); err != nil {
		t.Fatal(err)
	}
	types := BuildTypes()
	eng := core.New(db, types.Tables, append([]core.Option{
		core.WithMode(mode),
		core.WithWaitTimeout(20 * time.Second),
	}, opts...)...)
	if _, err := Register(eng, types, scale); err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(eng, DefaultWorkloadConfig(scale))
	return eng, w
}

func smallScale() Scale {
	return Scale{
		Warehouses: 1, Districts: 4, CustomersPerDistrict: 20,
		Items: 50, InitialOrdersPerDistrict: 20, NewOrderBacklog: 8,
	}
}

func checkAll(t *testing.T, eng *core.Engine, w *Workload) {
	t.Helper()
	errs := CheckConsistency(eng.DB(), w.cfg.Scale, w.Holes())
	for i, err := range errs {
		if i > 10 {
			t.Fatalf("... and %d more", len(errs)-i)
		}
		t.Error(err)
	}
}

func TestLoadIsConsistent(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	checkAll(t, eng, w)
}

func runMix(t *testing.T, eng *core.Engine, w *Workload, goroutines, perG int, seed int64) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < perG; i++ {
				name, args := w.DrawArgs(r, g)
				if out, err := w.Run(name, args); out == metrics.Failed {
					t.Errorf("%s failed: %v", name, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSerialMixACC(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	runMix(t, eng, w, 1, 300, 7)
	checkAll(t, eng, w)
	if got := eng.Snapshot().Commits; got == 0 {
		t.Fatal("no commits")
	}
}

func TestConcurrentMixACC(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	runMix(t, eng, w, 8, 80, 11)
	checkAll(t, eng, w)
}

func TestConcurrentMixBaseline(t *testing.T) {
	eng, w := testSystem(t, core.ModeBaseline, smallScale())
	runMix(t, eng, w, 8, 80, 13)
	checkAll(t, eng, w)
}
