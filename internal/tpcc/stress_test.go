package tpcc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/spi"
	"accdb/internal/wal"
)

func TestStressMixACC(t *testing.T) {
	eng, w := testSystem(t, 0, DefaultScale())
	runMix(t, eng, w, 24, 60, 99)
	checkAll(t, eng, w)
}

// TestStressMixACCWithEnv stretches lock-hold windows with real service
// times, which is what surfaces interleaving bugs.
func TestStressMixACCWithEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test with real service times")
	}
	scale := DefaultScale()
	db := core.NewDB()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := Load(db, scale, 42); err != nil {
		t.Fatal(err)
	}
	types := BuildTypes()
	eng := core.New(db, types.Tables,
		core.WithMode(core.ModeACC),
		core.WithWaitTimeout(20*time.Second),
		core.WithWAL(wal.New(20*time.Microsecond)),
		core.WithEnv(core.NewEnv(3, 50*time.Microsecond, 0)),
	)
	if _, err := Register(eng, types, scale); err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(eng, DefaultWorkloadConfig(scale))

	// Track every new_order instance outcome by ONum.
	var mu sync.Mutex
	outcomes := map[int64]string{}
	committed := map[[2]int64]int{} // (did, onum) -> count
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(7 + int64(g)))
			for i := 0; i < 40; i++ {
				var lastNO *NewOrderArgs
				name, args := w.DrawArgs(r, g)
				if name == "new_order" {
					lastNO = w.NewOrderArgs(r)
					args = lastNO
				}
				err := w.Run(name, args)
				if hardFailure(err) {
					mu.Lock()
					outcomes[-int64(g*1000+i)] = fmt.Sprintf("%s FAILED: %v", name, err)
					mu.Unlock()
				}
				if lastNO != nil && err == nil {
					mu.Lock()
					committed[[2]int64{lastNO.DID, lastNO.ONum}]++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	errs := CheckConsistency(eng.DB(), scale, w.Holes())
	holes := w.Holes()
	bad := 0
	for _, err := range errs {
		if bad < 5 {
			t.Log(err)
		}
		bad++
	}
	// For a few violating orders, dump their state.
	ot := eng.DB().Table(TOrders)
	shown := 0
	ot.Scan(func(_ spi.Key, row spi.Row) bool {
		wid, did, o := row[0].Int64(), row[1].Int64(), row[2].Int64()
		cnt := row[colOOLCnt].Int64()
		lines := int64(0)
		eng.DB().Table(TOrderLine).Scan(func(_ spi.Key, lr spi.Row) bool {
			if lr[0].Int64() == wid && lr[1].Int64() == did && lr[2].Int64() == o {
				lines++
			}
			return true
		})
		if cnt != lines && shown < 5 {
			shown++
			noExists := eng.DB().Table(TNewOrder).Exists(spi.EncodeKey(row[0], row[1], row[2]))
			t.Logf("order (%d,%d,%d): cnt=%d lines=%d carrier=%d queued=%v hole=%v",
				wid, did, o, cnt, lines, row[colOCarrier].Int64(), noExists, holes[DistrictKey{wid, did}][o])
		}
		return true
	})
	mu.Lock()
	n := 0
	for _, msg := range outcomes {
		if n < 10 {
			t.Log(msg)
		}
		n++
	}
	mu.Unlock()
	st := eng.Snapshot()
	ls := eng.Locks().Stats()
	t.Logf("violations=%d failedTxns=%d commits=%d aborts=%d comps=%d stepRetries=%d txnRetries=%d deadlocks=%d victimsForComp=%d",
		bad, n, st.Commits, st.UserAborts, st.Compensations, st.StepRetries, st.TxnRetries, ls.Deadlocks, ls.VictimsForComp)
	if bad > 0 {
		t.Fail()
	}
}
