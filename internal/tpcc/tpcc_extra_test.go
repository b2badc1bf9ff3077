package tpcc

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/spi"
)

func TestNURandBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if v := nuRand(r, 1023, cID, 1, 3000); v < 1 || v > 3000 {
			t.Fatalf("NURand out of range: %d", v)
		}
		if v := nuRand(r, 8191, cItem, 1, 100000); v < 1 || v > 100000 {
			t.Fatalf("NURand item out of range: %d", v)
		}
	}
}

func TestNURandIsNonUniform(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[nuRand(r, 8191, cItem, 0, 99)]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max) < 1.5*float64(min) {
		t.Fatalf("distribution looks uniform: min=%d max=%d", min, max)
	}
}

func TestLastName(t *testing.T) {
	if lastName(0) != "BARBARBAR" {
		t.Fatalf("lastName(0) = %q", lastName(0))
	}
	if lastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("lastName(371) = %q", lastName(371))
	}
	if lastName(999) != "EINGEINGEING" {
		t.Fatalf("lastName(999) = %q", lastName(999))
	}
}

func TestRandomStrings(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		s := aString(r, 5, 10)
		if len(s) < 5 || len(s) > 10 {
			t.Fatalf("aString length %d", len(s))
		}
		n := nString(r, 4, 4)
		if len(n) != 4 {
			t.Fatalf("nString length %d", len(n))
		}
		for _, c := range n {
			if c < '0' || c > '9' {
				t.Fatalf("nString non-digit %q", n)
			}
		}
		if z := zipCode(r); len(z) != 9 {
			t.Fatalf("zip %q", z)
		}
	}
}

func TestElevenForwardStepTypes(t *testing.T) {
	// The paper: "Eleven distinct forward step types were defined."
	types := BuildTypes()
	forward := map[string]bool{}
	for _, id := range []struct {
		name string
		id   any
	}{
		{"NO1", types.NO1}, {"NO2", types.NO2}, {"NOF", types.NOF},
		{"P1", types.P1}, {"P2", types.P2}, {"P3", types.P3},
		{"D1", types.D1}, {"D2", types.D2}, {"DF", types.DF},
		{"OS", types.OS}, {"SL", types.SL},
	} {
		forward[id.name] = true
	}
	if len(forward) != 11 {
		t.Fatalf("%d forward step types, want 11", len(forward))
	}
}

func TestWorkloadGeneration(t *testing.T) {
	scale := DefaultScale()
	_, w := testSystem(t, core.ModeACC, scale)
	r := rand.New(rand.NewSource(9))
	sawRollback := false
	for i := 0; i < 2000; i++ {
		a := w.NewOrderArgs(r)
		if a.DID < 1 || a.DID > int64(scale.Districts) {
			t.Fatalf("district %d", a.DID)
		}
		if len(a.Lines) < 5 || len(a.Lines) > 15 {
			t.Fatalf("lines %d", len(a.Lines))
		}
		for j, l := range a.Lines {
			bad := l.ItemID < 1 || l.ItemID > int64(scale.Items)
			if bad && !(a.InvalidItem && j == len(a.Lines)-1) {
				t.Fatalf("item %d", l.ItemID)
			}
		}
		if a.InvalidItem {
			sawRollback = true
		}
		p := w.PaymentArgs(r)
		if p.Amount < 100 || p.Amount > 500000 {
			t.Fatalf("amount %d", p.Amount)
		}
		sl := w.StockLevelArgs(r, i)
		if sl.Threshold < 10 || sl.Threshold > 20 {
			t.Fatalf("threshold %d", sl.Threshold)
		}
	}
	if !sawRollback {
		t.Fatal("1%% rollback never generated in 2000 draws")
	}
}

func TestWorkloadMixRatios(t *testing.T) {
	_, w := testSystem(t, core.ModeACC, smallScale())
	r := rand.New(rand.NewSource(11))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		name, _ := w.DrawArgs(r, i)
		counts[name]++
	}
	for typ, pct := range map[string]int{
		"new_order": 45, "payment": 43, "order_status": 4, "delivery": 4, "stock_level": 4,
	} {
		got := float64(counts[typ]) / n * 100
		if got < float64(pct)-2 || got > float64(pct)+2 {
			t.Errorf("%s: %.1f%%, want ~%d%%", typ, got, pct)
		}
	}
}

func TestDistrictSkew(t *testing.T) {
	scale := smallScale()
	db := core.NewDB()
	CreateSchema(db)
	Load(db, scale, 1)
	types := BuildTypes()
	eng := core.New(db, types.Tables)
	Register(eng, types, scale)
	cfg := DefaultWorkloadConfig(scale)
	cfg.DistrictSkew = 0.5
	w := NewWorkload(eng, cfg)
	r := rand.New(rand.NewSource(13))
	hot := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if w.NewOrderArgs(r).DID == 1 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.55 || frac > 0.70 { // 0.5 + 0.5/districts ≈ 0.625
		t.Fatalf("hot district fraction %.2f", frac)
	}
}

func TestConsistencyCheckerDetectsCorruption(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	runMix(t, eng, w, 2, 40, 21)
	if errs := CheckConsistency(eng.DB(), w.cfg.Scale, w.Holes()); len(errs) != 0 {
		t.Fatalf("clean state flagged: %v", errs[0])
	}
	// Corrupt: delete one order line behind the engine's back.
	ol := eng.DB().Table(TOrderLine)
	var victim spi.Key
	ol.Scan(func(pk spi.Key, _ spi.Row) bool {
		victim = pk
		return false
	})
	if _, err := ol.Delete(victim); err != nil {
		t.Fatal(err)
	}
	errs := CheckConsistency(eng.DB(), w.cfg.Scale, w.Holes())
	if len(errs) == 0 {
		t.Fatal("corruption not detected")
	}
	// Conditions 4 and 6 both see the missing line.
	found4, found6 := false, false
	for _, err := range errs {
		msg := err.Error()
		if len(msg) >= 13 && msg[:13] == "consistency 4" {
			found4 = true
		}
		if len(msg) >= 13 && msg[:13] == "consistency 6" {
			found6 = true
		}
	}
	if !found4 || !found6 {
		t.Fatalf("wrong conditions fired: %v", errs)
	}
}

func TestConsistencyCheckerDetectsYTDDrift(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	// Corrupt w_ytd.
	wt := eng.DB().Table(TWarehouse)
	pk := spi.EncodeKey(spi.I64(1))
	row, _ := wt.Get(pk)
	row[colWYTD] = spi.I64(row[colWYTD].Int64() + 1)
	wt.Update(pk, row)
	errs := CheckConsistency(eng.DB(), w.cfg.Scale, w.Holes())
	if len(errs) == 0 {
		t.Fatal("YTD drift not detected")
	}
}

// TestACCNonSerializableButConsistent drives the decomposed mix hard enough
// that the committed history is (almost always) not conflict serializable,
// while all twelve consistency conditions still hold — the paper's central
// claim in one test.
func TestACCNonSerializableButConsistent(t *testing.T) {
	scale := smallScale()
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
		core.WithRecordHistory(true),
	)
	if _, err := Register(eng, types, scale); err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(eng, DefaultWorkloadConfig(scale))
	runMix(t, eng, w, 8, 60, 31)
	checkAll(t, eng, w)
	if eng.History().ConflictSerializable() {
		t.Log("note: this run happened to be serializable (rare but possible)")
	}
}

func TestTPCCCrashRecovery(t *testing.T) {
	scale := smallScale()
	eng, w := testSystem(t, core.ModeACC, scale)
	runMix(t, eng, w, 4, 40, 17)
	// "Crash": rebuild a fresh system over the same base load and replay the
	// durable log.
	img := eng.Log().DurableBytes()
	db2 := core.NewDB()
	if err := CreateSchema(db2); err != nil {
		t.Fatal(err)
	}
	if err := Load(db2, scale, 42); err != nil { // same seed: the archive copy
		t.Fatal(err)
	}
	types := BuildTypes()
	eng2 := core.New(db2, types.Tables, core.WithMode(core.ModeACC))
	if _, err := Register(eng2, types, scale); err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions recovered")
	}
	// The recovered database must satisfy all twelve conditions; the holes
	// set must include compensations performed during recovery, so rebuild
	// it from both sources.
	holes := w.Holes()
	for _, a := range res.Analysis.Pending() {
		if a.Type == "new_order" {
			args, err := eng2.Type("new_order").DecodeArgs(a.WorkArea)
			if err != nil {
				t.Fatal(err)
			}
			na := args.(*NewOrderArgs)
			k := DistrictKey{na.WID, na.DID}
			if holes[k] == nil {
				holes[k] = map[int64]bool{}
			}
			holes[k][na.ONum] = true
		}
	}
	errs := CheckConsistency(db2, scale, holes)
	for i, err := range errs {
		if i > 5 {
			break
		}
		t.Error(err)
	}
}

func TestLegacyTransactionOnTPCC(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	runMix(t, eng, w, 2, 20, 19)
	// An undecomposed analytic query runs against the quiescent store and
	// sees a consistent snapshot.
	var orders, lines int64
	err := eng.RunLegacy("count", func(tc *core.Ctx) error {
		orders, lines = 0, 0
		if err := tc.Scan(TOrders, func(row spi.Row) error {
			orders += row[colOOLCnt].Int64()
			return nil
		}); err != nil {
			return err
		}
		return tc.Scan(TOrderLine, func(spi.Row) error {
			lines++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if orders != lines {
		t.Fatalf("legacy read inconsistent state: sum(ol_cnt)=%d lines=%d", orders, lines)
	}
}

func TestBaselineRollbackRestoresCounter(t *testing.T) {
	// Under the serializable baseline, the 1%-rollback new-order restores
	// d_next_o_id (no hole); under the ACC it leaves a hole. Both keep I.
	scale := smallScale()
	eng, w := testSystem(t, core.ModeBaseline, scale)
	r := rand.New(rand.NewSource(23))
	a := w.NewOrderArgs(r)
	a.InvalidItem = true
	a.Lines[len(a.Lines)-1].ItemID = int64(scale.Items) + 1
	before, _ := eng.DB().Table(TDistrict).Get(spi.EncodeKey(i64(1), i64(a.DID)))
	if err := eng.Run("new_order", a); err == nil {
		t.Fatal("invalid item should abort")
	}
	after, _ := eng.DB().Table(TDistrict).Get(spi.EncodeKey(i64(1), i64(a.DID)))
	if before[colDNext].Int64() != after[colDNext].Int64() {
		t.Fatal("baseline rollback must restore the order counter")
	}
	checkAll(t, eng, w)
}

// TestDeliveryDoesNotOvertakeAnUncommittedDelivery: a delivery stalled after
// claiming a district's oldest order keeps later deliveries out of that
// district's queue, so when the stalled one is rolled back its order returns
// to the HEAD of the queue and the next delivery takes it — not the order
// behind it, which would leave the re-queued one stranded below a delivered
// order (condition 3).
func TestDeliveryDoesNotOvertakeAnUncommittedDelivery(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	head := func(d int64) int64 {
		o := int64(0)
		eng.DB().Table(TNewOrder).IndexScan(IdxNewOrderByDist, []spi.Value{i64(1), i64(d)},
			func(_ spi.Key, row spi.Row) bool {
				o = row[colNoOID].Int64()
				return false
			})
		return o
	}
	first, stall := head(1), head(2)

	// An undecomposed transaction sits on the order the first delivery will
	// claim in district 2: D2[2] blocks there, with district 1 delivered.
	holding, release := make(chan struct{}), make(chan struct{})
	legacyDone := make(chan error, 1)
	go func() {
		legacyDone <- eng.RunLegacy("hold", func(tc *core.Ctx) error {
			err := tc.Update(TOrders, []spi.Value{i64(1), i64(2), i64(stall)}, func(spi.Row) error { return nil })
			close(holding)
			<-release
			return err
		})
	}()
	<-holding

	r := rand.New(rand.NewSource(31))
	ctx, cancel := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() { aDone <- eng.Exec(ctx, core.Request{Name: "delivery", Args: w.DeliveryArgs(r)}) }()
	for head(2) == stall { // until the first delivery has claimed in district 2
		time.Sleep(time.Millisecond)
	}
	bArgs := w.DeliveryArgs(r)
	bDone := make(chan error, 1)
	go func() { bDone <- eng.Exec(context.Background(), core.Request{Name: "delivery", Args: bArgs}) }()
	time.Sleep(50 * time.Millisecond)
	if got := head(1); got != first+1 {
		t.Fatalf("district 1 queue head = %d with one uncommitted claim of %d: a second delivery went past it", got, first)
	}

	cancel()
	if err := <-aDone; !core.IsCompensated(err) {
		t.Fatalf("stalled delivery: %v, want a compensated rollback", err)
	}
	close(release)
	if err := <-legacyDone; err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	if bArgs.Claimed[0] != first || bArgs.Claimed[1] != stall {
		t.Fatalf("second delivery claimed %v, want the re-queued heads %d and %d", bArgs.Claimed[:2], first, stall)
	}
	checkAll(t, eng, w)
}
