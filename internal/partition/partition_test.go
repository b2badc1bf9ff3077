package partition_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sync"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/fault"
	"accdb/internal/interference"
	"accdb/internal/partition"
	"accdb/internal/spi"
	"accdb/internal/tpcc"
	"accdb/internal/trace"

	_ "accdb/internal/backends" // default storage backends
)

// buildTPCCSet assembles a partitioned TPC-C system through the one stack
// constructor: one engine per partition, each loaded with its own warehouses
// (plus the replicated item table) and, when walBase is non-empty, its own
// disk-backed log under walBase/p<N>.
func buildTPCCSet(t testing.TB, parts int, scale tpcc.Scale, seed int64, walBase string) *partition.Set {
	t.Helper()
	st, err := tpcc.NewStack(tpcc.StackConfig{
		Partitions: parts, Scale: scale, Seed: seed, WALDir: walBase,
		Engine: []core.Option{core.WithMode(core.ModeACC), core.WithWaitTimeout(10 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.Set
}

func partitionDBs(set *partition.Set) []*core.DB {
	dbs := make([]*core.DB, set.Partitions())
	for p := range dbs {
		dbs[p] = set.Engine(p).DB()
	}
	return dbs
}

func smallScale(warehouses int) tpcc.Scale {
	return tpcc.Scale{
		Warehouses: warehouses, Districts: 2, CustomersPerDistrict: 10,
		Items: 40, InitialOrdersPerDistrict: 10, NewOrderBacklog: 4,
	}
}

// stockYTD reads s_ytd of one stock row straight from a partition's store.
func stockYTD(t *testing.T, set *partition.Set, part int, w, item int64) int64 {
	t.Helper()
	st := set.Engine(part).DB().Store().Table(tpcc.TStock)
	row, err := st.Get(spi.EncodeKey(spi.I64(w), spi.I64(item)))
	if err != nil {
		t.Fatalf("stock (%d,%d) on partition %d: %v", w, item, part, err)
	}
	return row[st.Schema().MustCol("s_ytd")].Int64()
}

func newOrderArgs(w int64, lines ...tpcc.OrderLineReq) *tpcc.NewOrderArgs {
	return &tpcc.NewOrderArgs{
		WID: w, DID: 1, CID: 1, Lines: lines,
		Filled:  make([]int64, len(lines)),
		Amounts: make([]int64, len(lines)),
	}
}

// TestSinglePartitionFastPath: a transaction whose footprint stays on its
// home partition routes straight to that engine — no decision record, no
// coordinator state, just the counter.
func TestSinglePartitionFastPath(t *testing.T) {
	scale := smallScale(2)
	set := buildTPCCSet(t, 2, scale, 1, "")
	defer set.Close()

	// Home-only new-order on warehouse 2 (partition 1) and a payment on
	// warehouse 1 (partition 0).
	if err := set.Run("new_order", newOrderArgs(2,
		tpcc.OrderLineReq{ItemID: 1, SupplyW: 2, Quantity: 3},
		tpcc.OrderLineReq{ItemID: 2, SupplyW: 2, Quantity: 1},
	)); err != nil {
		t.Fatal(err)
	}
	if err := set.Run("payment", &tpcc.PaymentArgs{
		WID: 1, DID: 1, CWID: 1, CDID: 1, CID: 1, Amount: 500, HID: 1 << 30,
	}); err != nil {
		t.Fatal(err)
	}

	st := set.Snapshot()
	if st.SingleRouted != 2 {
		t.Errorf("single-routed = %d, want 2", st.SingleRouted)
	}
	if st.CrossStarted != 0 || st.ShotsRun != 0 {
		t.Errorf("cross-partition machinery engaged for local transactions: %+v", st)
	}
	// The order landed on partition 1, nothing on partition 0.
	if n := set.Engine(1).DB().Store().Table(tpcc.TNewOrder).Len(); n == 0 {
		t.Error("new order missing from its home partition")
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, nil); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestCrossPartitionNewOrder: a new-order with a remote-partition supply
// line runs as home transaction + one no_stock shot; both partitions end up
// with the correct stock and the battery (including the cross-partition
// condition 13) holds.
func TestCrossPartitionNewOrder(t *testing.T) {
	scale := smallScale(2)
	set := buildTPCCSet(t, 2, scale, 1, "")
	defer set.Close()

	before := stockYTD(t, set, 1, 2, 7)
	// Home warehouse 1 (partition 0), one local line, one line supplied by
	// warehouse 2 (partition 1).
	if err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 3, SupplyW: 1, Quantity: 2},
		tpcc.OrderLineReq{ItemID: 7, SupplyW: 2, Quantity: 5},
	)); err != nil {
		t.Fatal(err)
	}

	st := set.Snapshot()
	if st.CrossStarted != 1 || st.CrossCommitted != 1 || st.ShotsRun != 1 {
		t.Errorf("cross counters = %+v, want one committed cross transaction with one shot", st)
	}
	if st.ShotUndos != 0 || st.CrossAborted != 0 {
		t.Errorf("unexpected rollback activity: %+v", st)
	}
	if got := stockYTD(t, set, 1, 2, 7); got != before+5 {
		t.Errorf("remote stock s_ytd = %d, want %d", got, before+5)
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, nil); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestCrossPartitionRollback: a remote order that aborts in its finish step
// — after the remote shot committed — must be compensated on both
// partitions: the home engine's §3.4 rollback locally, the coordinator's
// no_stock_undo shot remotely.
func TestCrossPartitionRollback(t *testing.T) {
	scale := smallScale(2)
	set := buildTPCCSet(t, 2, scale, 1, "")
	defer set.Close()

	before := stockYTD(t, set, 1, 2, 9)
	args := newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 4, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 9, SupplyW: 2, Quantity: 4},
	)
	args.FailFinal = true
	err := set.Run("new_order", args)
	if err == nil {
		t.Fatal("FailFinal new-order committed")
	}
	if !core.IsCompensated(err) {
		t.Fatalf("want compensated error, got %v", err)
	}

	st := set.Snapshot()
	if st.CrossAborted != 1 || st.ShotsRun != 1 || st.ShotUndos != 1 {
		t.Errorf("cross counters = %+v, want one aborted cross transaction, one shot, one undo", st)
	}
	if got := stockYTD(t, set, 1, 2, 9); got != before {
		t.Errorf("remote stock s_ytd = %d after rollback, want %d", got, before)
	}
	holes := map[tpcc.DistrictKey]map[int64]bool{
		{W: 1, D: 1}: {args.ONum: true},
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, holes); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestMultiShotPlan: remote lines on two different partitions become two
// shots; a finish-step abort then undoes both in reverse order.
func TestMultiShotPlan(t *testing.T) {
	scale := smallScale(3)
	set := buildTPCCSet(t, 3, scale, 1, "")
	defer set.Close()

	if err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 1, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 2, SupplyW: 2, Quantity: 2},
		tpcc.OrderLineReq{ItemID: 3, SupplyW: 3, Quantity: 3},
	)); err != nil {
		t.Fatal(err)
	}
	if st := set.Snapshot(); st.ShotsRun != 2 {
		t.Errorf("shots = %d, want 2 (one per remote partition)", st.ShotsRun)
	}

	args := newOrderArgs(2,
		tpcc.OrderLineReq{ItemID: 5, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 6, SupplyW: 3, Quantity: 2},
	)
	args.FailFinal = true
	if err := set.Run("new_order", args); err == nil {
		t.Fatal("FailFinal new-order committed")
	}
	if st := set.Snapshot(); st.ShotUndos != 2 {
		t.Errorf("shot undos = %d, want 2", st.ShotUndos)
	}
	holes := map[tpcc.DistrictKey]map[int64]bool{
		{W: 2, D: 1}: {args.ONum: true},
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, holes); len(errs) > 0 {
		t.Fatalf("consistency: %v", errs[0])
	}
}

// TestPartitionedConsistencyUnderLoad is the acceptance battery: four
// partitions, the full mix with a high remote-warehouse share, concurrent
// terminals, then every consistency condition — including the
// cross-partition stock/order-line tie (condition 13) — over the union of
// the partition stores.
func TestPartitionedConsistencyUnderLoad(t *testing.T) {
	scale := tpcc.Scale{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 20,
		Items: 60, InitialOrdersPerDistrict: 20, NewOrderBacklog: 8,
	}
	set := buildTPCCSet(t, 4, scale, 42, "")
	defer set.Close()

	wcfg := tpcc.DefaultWorkloadConfig(scale)
	wcfg.RemotePercent = 30
	wcfg.RollbackPercent = 10
	w := tpcc.NewRemoteWorkload(set.Run, wcfg)

	const terminals, opsPerTerminal = 8, 150
	var wg sync.WaitGroup
	for term := 0; term < terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(42 + int64(term)*7919))
			for i := 0; i < opsPerTerminal; i++ {
				w.Next(r, term).Run()
			}
		}(term)
	}
	wg.Wait()

	st := set.Snapshot()
	if st.CrossStarted == 0 {
		t.Fatal("no cross-partition transactions in a 30% remote mix")
	}
	if st.SingleRouted == 0 {
		t.Fatal("no single-partition transactions")
	}
	t.Logf("routing: single=%d crossStarted=%d crossCommitted=%d crossAborted=%d shots=%d undos=%d deadlocks=%d",
		st.SingleRouted, st.CrossStarted, st.CrossCommitted, st.CrossAborted,
		st.ShotsRun, st.ShotUndos, st.CrossDeadlocks)

	errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set), scale, w.Holes())
	for i, err := range errs {
		if i > 5 {
			t.Fatalf("... and %d more", len(errs)-i)
		}
		t.Error(err)
	}
}

// TestRecoverForwardDrive: crash right after a cross-partition commit. The
// home commit force is the global commit point, but the advisory
// TCoordCommit behind it is lost with the page cache — recovery must close
// the decision record as committed, not roll the shots back.
func TestRecoverForwardDrive(t *testing.T) {
	scale := smallScale(2)
	dir := t.TempDir()
	set := buildTPCCSet(t, 2, scale, 1, dir)

	if err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 3, SupplyW: 1, Quantity: 2},
		tpcc.OrderLineReq{ItemID: 7, SupplyW: 2, Quantity: 5},
	)); err != nil {
		t.Fatal(err)
	}
	after := stockYTD(t, set, 1, 2, 7)
	for _, e := range set.Engines() {
		e.Log().Crash()
	}
	set.Close()
	for _, e := range set.Engines() {
		e.Log().Close()
	}

	set2 := buildTPCCSet(t, 2, scale, 1, dir)
	defer set2.Close()
	res, err := set2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ForwardDriven) != 1 || len(res.Undone) != 0 {
		t.Fatalf("recovery closed %v forward, %v undone; want 1 forward", res.ForwardDriven, res.Undone)
	}
	if got := stockYTD(t, set2, 1, 2, 7); got != after {
		t.Errorf("recovered remote stock s_ytd = %d, want %d", got, after)
	}
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set2), scale, nil); len(errs) > 0 {
		t.Fatalf("consistency after recovery: %v", errs[0])
	}
}

// TestRecoverUndoesShots: crash between shots (the partition.coord.shot
// fault point). The shot's commit is durable on its partition, the home
// transaction is not — recovery must compensate the home transaction
// locally and run the shot's undo from the work area its commit record
// preserved.
func TestRecoverUndoesShots(t *testing.T) {
	scale := smallScale(2)
	dir := t.TempDir()
	set := buildTPCCSet(t, 2, scale, 1, dir)

	before := stockYTD(t, set, 1, 2, 9)
	ctrl := fault.NewController(1)
	ctrl.Arm("partition.coord.shot.crash", fault.Spec{Effect: fault.Crash, Nth: 1})
	ctrl.Activate()
	err := set.Run("new_order", newOrderArgs(1,
		tpcc.OrderLineReq{ItemID: 4, SupplyW: 1, Quantity: 1},
		tpcc.OrderLineReq{ItemID: 9, SupplyW: 2, Quantity: 4},
	))
	fault.Deactivate()
	// The frozen logs make everything after the crash point non-durable: the
	// in-process run continues, but nothing it does can be acknowledged.
	if !errors.Is(err, core.ErrLogFailed) {
		t.Fatalf("post-crash-point execution returned %v, want ErrLogFailed", err)
	}
	set.Close()
	for _, e := range set.Engines() {
		e.Log().Close()
	}

	set2 := buildTPCCSet(t, 2, scale, 1, dir)
	defer set2.Close()
	res, err := set2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undone) != 1 || len(res.ForwardDriven) != 0 {
		t.Fatalf("recovery closed %v undone, %v forward; want 1 undone", res.Undone, res.ForwardDriven)
	}
	if got := stockYTD(t, set2, 1, 2, 9); got != before {
		t.Errorf("remote stock s_ytd = %d after recovery undo, want %d", got, before)
	}
	holes := tpcc.HolesFromRecovery(res.Partitions[0])
	if errs := tpcc.CheckConsistencyPartitioned(partitionDBs(set2), scale, holes); len(errs) > 0 {
		t.Fatalf("consistency after recovery: %v", errs[0])
	}

	// Idempotence: a second recovery pass over the same (reopened) logs finds
	// the decision record closed and does nothing.
	set2.Close()
	for _, e := range set2.Engines() {
		e.Log().Close()
	}
	set3 := buildTPCCSet(t, 2, scale, 1, dir)
	defer set3.Close()
	res3, err := set3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Undone) != 0 || len(res3.ForwardDriven) != 0 {
		t.Fatalf("second recovery reopened globals: %+v", res3)
	}
}

// TestCrossPartitionDeadlock builds the basic cycle: two cross-partition
// transactions acquire exposure marks in opposite partition order — each
// holds a row on its home partition and sends a shot after the row the other
// holds. Neither lock table holds a cycle; the on-block walk finds it by
// following each holder's group to the shot blocked in the other partition.
// The shot that closes the cycle dies and its global is doomed (compensated
// at home, nothing to undo); the survivor keeps its marks and commits.
func TestCrossPartitionDeadlock(t *testing.T) {
	sys := newLockerSys(t, 2, 10*time.Second)
	defer sys.set.Close()

	arrive := barrier(2)
	start := time.Now()
	// T1: home partition 0, holds key 1 there, then pokes key 2 on partition 1.
	// T2: home partition 1, holds key 2 there, then pokes key 1 on partition 0.
	errs := sys.run(
		&lockerArgs{Home: 0, LocalKey: 1, Remote: []*pokeArgs{{Part: 1, Key: 2}}, grabbed: arrive},
		&lockerArgs{Home: 1, LocalKey: 2, Remote: []*pokeArgs{{Part: 0, Key: 1}}, grabbed: arrive},
	)
	sys.wantBroken(t, start, errs, 1, 1)

	// Exactly one (home, remote) pair carries the survivor's increments; the
	// victim's home increment was compensated away and its poke never landed.
	v1, v2 := sys.value(t, 0, 1), sys.value(t, 1, 2)
	ok := (v1 == 1 && v2 == 10) || (v1 == 10 && v2 == 1)
	if !ok {
		t.Errorf("final values key1=%d key2=%d; want (1,10) or (10,1)", v1, v2)
	}
}

// TestCrossPartitionDeadlockThroughLocal: the cycle passes through a purely
// local transaction. L (local to partition 0) holds key 3 and waits for key
// 1; G2's shot waits for key 3; G1, which holds key 1, closes the cycle from
// partition 1 — two group hops and one ordinary one. G1 is doomed; L and G2
// commit.
func TestCrossPartitionDeadlockThroughLocal(t *testing.T) {
	sys := newLockerSys(t, 2, 10*time.Second)
	defer sys.set.Close()

	g1Grabbed, g1Go := make(chan struct{}), make(chan struct{})
	g1 := &lockerArgs{Home: 0, LocalKey: 1, Remote: []*pokeArgs{{Part: 1, Key: 2}},
		grabbed: func() { close(g1Grabbed); <-g1Go }}
	errs1 := sys.runAsync(g1)
	<-g1Grabbed
	errsL := sys.runAsync(&lockerArgs{Home: 0, LocalKey: 3, Then: 1})
	sys.awaitWaiters(t, 0, 1) // L, on key 1
	errs2 := sys.runAsync(&lockerArgs{Home: 1, LocalKey: 2, Remote: []*pokeArgs{{Part: 0, Key: 3}}})
	sys.awaitWaiters(t, 0, 2) // and G2's shot, on key 3
	start := time.Now()
	close(g1Go)

	errs := []error{<-errs1, <-errsL, <-errs2}
	sys.wantBroken(t, start, errs, 1, 1)
	if errs[0] == nil {
		t.Errorf("the closer's global committed; failures: %v", errs)
	}
	sys.wantValues(t, map[kvRef]int64{{0, 1}: 100, {0, 3}: 11, {1, 2}: 1})
}

// TestCrossPartitionDeadlockRing: three globals, each holding a row at home
// and poking the next partition's — a cycle of three group hops.
func TestCrossPartitionDeadlockRing(t *testing.T) {
	sys := newLockerSys(t, 3, 10*time.Second)
	defer sys.set.Close()

	arrive := barrier(3)
	var ring []*lockerArgs
	for p := 0; p < 3; p++ {
		ring = append(ring, &lockerArgs{Home: p, LocalKey: 1,
			Remote: []*pokeArgs{{Part: (p + 1) % 3, Key: 1}}, grabbed: arrive})
	}
	start := time.Now()
	errs := sys.run(ring...)
	sys.wantBroken(t, start, errs, 1, 1)
	// The victim's partition keeps the poke it received and lost its own grab;
	// the partition after it never got the victim's poke.
	for v, err := range errs {
		if err != nil {
			sys.wantValues(t, map[kvRef]int64{{v, 1}: 10, {(v + 1) % 3, 1}: 1, {(v + 2) % 3, 1}: 11})
		}
	}
}

// TestCrossPartitionDeadlockUndoCloses: the request that closes the cycle
// belongs to an undo shot. G1 is rolling back: its undo shot U holds key 1 of
// partition 0 and now wants key 2, which G2 holds at home; G2's shot waits in
// partition 1 for G3's home row; G3's shot waits in partition 0 for key 1.
// §3.4 lifted across partitions: U survives and the first forward member
// along the cycle, G2, is doomed. (G2's compensation then finds U queued ahead
// of it on key 2, and U — shielded less than a compensating step — yields.)
func TestCrossPartitionDeadlockUndoCloses(t *testing.T) {
	sys := newLockerSys(t, 3, 10*time.Second)
	defer sys.set.Close()

	uHolds, uGo := make(chan struct{}), make(chan struct{})
	g1 := &lockerArgs{Home: 2, LocalKey: 1, Fail: true, Remote: []*pokeArgs{{Part: 0, Key: 1, Then: 2,
		between: func() { close(uHolds); <-uGo }}}}
	errs1 := sys.runAsync(g1)
	<-uHolds
	errs3 := sys.runAsync(&lockerArgs{Home: 1, LocalKey: 1, Remote: []*pokeArgs{{Part: 0, Key: 1}}})
	sys.awaitWaiters(t, 0, 1) // G3's shot, on key 1
	errs2 := sys.runAsync(&lockerArgs{Home: 0, LocalKey: 2, Remote: []*pokeArgs{{Part: 1, Key: 1}}})
	sys.awaitWaiters(t, 1, 1) // G2's shot, on G3's row

	// What the operator sees is what the walk will follow: G2's shot waits
	// for G3's home transaction, which (dashed) waits for G3's shot, blocked
	// in partition 0. G3 was the second global to start.
	var tables []*spi.TableSnapshot
	for _, e := range sys.set.Engines() {
		tables = append(tables, e.Locks().Snapshot())
	}
	groupEdge := regexp.MustCompile(`p1_t\d+ -> p0_t\d+ \[style=dashed label="g2"\]`)
	if dot := spi.WaitsForDOT(tables); !groupEdge.MatchString(dot) {
		t.Errorf("no group edge from partition 1 to partition 0 in:\n%s", dot)
	}
	if text := spi.LocksText(tables); !regexp.MustCompile(`p1:T\d+ waits-for p0:T\d+ as g2`).MatchString(text) {
		t.Errorf("no group edge in:\n%s", text)
	}

	start := time.Now()
	close(uGo)

	errs := []error{<-errs1, <-errs2, <-errs3}
	// G1 fails by design and is undone; G2 is the one deadlock victim.
	sys.wantBroken(t, start, errs, 2, 1)
	if !errors.Is(errs[0], errLockerFail) || errs[1] == nil {
		t.Errorf("want G1 rolled back by its own failure and G2 doomed, got %v", errs)
	}
	if st := sys.set.Snapshot(); st.ShotUndos != 1 {
		t.Errorf("shot undos = %d, want 1: the undo shot must finish", st.ShotUndos)
	}
	sys.wantValues(t, map[kvRef]int64{{0, 1}: 10, {0, 2}: 0, {1, 1}: 1, {2, 1}: 0})
}

// TestCrossPartitionDeadlockStress: seeded random globals poke a handful of
// rows over three partitions in every order, some failing on purpose so undo
// shots run in the mix. Whatever cycles form must be found when they close:
// no lock wait may reach the 2 s budget, every run must end — committed, or
// rolled back (compensated with its shots undone, or aborted in place before
// anything was exposed) — and each row must hold exactly the increments of
// the committed runs.
func TestCrossPartitionDeadlockStress(t *testing.T) {
	const parts, keys, workers, rounds = 3, 2, 8, 20
	sys := newLockerSys(t, parts, 2*time.Second)
	defer sys.set.Close()

	var mu sync.Mutex
	want := make(map[kvRef]int64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(20 + int64(w)))
			for i := 0; i < rounds; i++ {
				a := &lockerArgs{Home: r.Intn(parts), LocalKey: 1 + r.Int63n(keys), Fail: r.Intn(8) == 0}
				// Hold the home row a moment, or the runs hardly overlap.
				a.grabbed = func() { time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond) }
				for _, off := range r.Perm(parts - 1)[:1+r.Intn(parts-1)] {
					a.Remote = append(a.Remote, &pokeArgs{Part: (a.Home + 1 + off) % parts, Key: 1 + r.Int63n(keys)})
				}
				err := sys.set.Run("locker", a)
				switch {
				case err == nil:
					mu.Lock()
					want[kvRef{a.Home, a.LocalKey}]++
					for _, p := range a.Remote {
						want[kvRef{p.Part, p.Key}] += 10
					}
					mu.Unlock()
				case errors.Is(err, spi.ErrTimeout):
					t.Errorf("worker %d round %d: a lock wait timed out: %v", w, i, err)
				case core.IsCompensated(err):
				case core.Retryable(err), errors.Is(err, context.Canceled):
					// A victim before its first step completed: undone in place.
				default:
					t.Errorf("worker %d round %d: neither committed nor rolled back: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()

	sys.tracer.Flush()
	if n := sys.events.count(trace.KindLockTimeout); n != 0 || sys.tracer.Drops() != 0 {
		t.Errorf("%d lock waits timed out (%d trace events dropped)", n, sys.tracer.Drops())
	}
	st := sys.set.Snapshot()
	if st.CrossCommitted+st.CrossAborted != workers*rounds {
		t.Errorf("counters = %+v, want %d globals ended", st, workers*rounds)
	}
	if n := sys.events.count(trace.KindCrossDeadlock); uint64(n) != st.CrossDeadlocks {
		t.Errorf("%d coord.deadlock events for %d dooms", n, st.CrossDeadlocks)
	}
	t.Logf("committed=%d aborted=%d undos=%d dooms=%d", st.CrossCommitted, st.CrossAborted, st.ShotUndos, st.CrossDeadlocks)
	for p := 0; p < parts; p++ {
		for k := int64(1); k <= keys; k++ {
			if _, ok := want[kvRef{p, k}]; !ok {
				want[kvRef{p, k}] = 0
			}
		}
	}
	sys.wantValues(t, want)
}

// --- minimal cross-partition locker system for the deadlock tests ----------

// barrier returns a function that blocks until it was called n times.
func barrier(n int) func() {
	var wg sync.WaitGroup
	wg.Add(n)
	return func() { wg.Done(); wg.Wait() }
}

// kvRef names one kv row: every partition holds keys 1..lockerKeys.
type kvRef struct {
	Part int
	Key  int64
}

const lockerKeys = 3

var errLockerFail = errors.New("locker: failing on request")

// lockerArgs drives one "locker": a first step that increments LocalKey on
// the home partition (and keeps its exposure mark), then a second that runs
// one poke shot per Remote entry, increments Then (another home key) if set,
// and fails if Fail — after its shots committed, so they are undone.
type lockerArgs struct {
	Home     int
	LocalKey int64
	Remote   []*pokeArgs
	Then     int64
	Fail     bool
	grabbed  func() // called once, inside the first step, holding LocalKey
	once     sync.Once
}

// pokeArgs drives one "poke" shot (+10 on Key, then on Then if set) and its
// undo, which calls between once after giving back Key and before Then.
type pokeArgs struct {
	Part    int
	Key     int64
	Then    int64
	between func()
	once    sync.Once
}

// kindCounter is a trace sink that tallies events by kind.
type kindCounter struct {
	mu sync.Mutex
	n  map[trace.Kind]int
}

func (c *kindCounter) Write(batch []trace.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range batch {
		c.n[ev.Kind]++
	}
	return nil
}

func (c *kindCounter) Close() error { return nil }

func (c *kindCounter) count(k trace.Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[k]
}

type lockerSys struct {
	set    *partition.Set
	tracer *trace.Tracer
	events *kindCounter
}

func (s *lockerSys) value(t *testing.T, part int, key int64) int64 {
	t.Helper()
	tb := s.set.Engine(part).DB().Store().Table("kv")
	row, err := tb.Get(spi.EncodeKey(spi.I64(key)))
	if err != nil {
		t.Fatalf("kv %d on partition %d: %v", key, part, err)
	}
	return row[1].Int64()
}

func (s *lockerSys) wantValues(t *testing.T, want map[kvRef]int64) {
	t.Helper()
	for ref, v := range want {
		if got := s.value(t, ref.Part, ref.Key); got != v {
			t.Errorf("partition %d key %d = %d, want %d", ref.Part, ref.Key, got, v)
		}
	}
}

// runAsync starts one locker and returns where its outcome will arrive.
func (s *lockerSys) runAsync(a *lockerArgs) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.set.Run("locker", a) }()
	return done
}

// run runs the lockers concurrently and returns their outcomes in order.
func (s *lockerSys) run(args ...*lockerArgs) []error {
	var done []<-chan error
	for _, a := range args {
		done = append(done, s.runAsync(a))
	}
	errs := make([]error, len(args))
	for i := range done {
		errs[i] = <-done[i]
	}
	return errs
}

// awaitWaiters blocks until partition part's lock table has n blocked requests.
func (s *lockerSys) awaitWaiters(t *testing.T, part, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.set.Engine(part).Locks().Snapshot().WaiterCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("partition %d never had %d blocked requests", part, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// wantBroken asserts a deadlock was broken promptly and precisely: the runs
// ended well inside the lock-wait budget, exactly failed of them failed, and
// exactly doomed globals were doomed — each counted and traced once.
func (s *lockerSys) wantBroken(t *testing.T, start time.Time, errs []error, failed int, doomed uint64) {
	t.Helper()
	if d := time.Since(start); d > time.Second {
		t.Errorf("the cycle took %v to break", d)
	}
	var failures []error
	for _, err := range errs {
		if err != nil {
			failures = append(failures, err)
		}
	}
	if len(failures) != failed {
		t.Fatalf("want exactly %d failures, got %d: %v", failed, len(failures), failures)
	}
	st := s.set.Snapshot()
	if st.CrossDeadlocks != doomed {
		t.Errorf("cross deadlocks = %d, want %d", st.CrossDeadlocks, doomed)
	}
	if int(st.CrossAborted) != failed || int(st.CrossCommitted+st.SingleRouted+st.CrossAborted) != len(errs) {
		t.Errorf("counters = %+v, want %d of %d runs aborted", st, failed, len(errs))
	}
	s.tracer.Flush()
	if n := s.events.count(trace.KindCrossDeadlock); uint64(n) != doomed {
		t.Errorf("%d coord.deadlock events, want %d", n, doomed)
	}
}

func newLockerSys(t *testing.T, parts int, waitTimeout time.Duration) *lockerSys {
	t.Helper()
	b := newInterference()
	sys := &lockerSys{events: &kindCounter{n: make(map[trace.Kind]int)}}
	sys.tracer = trace.New(sys.events)
	t.Cleanup(func() { sys.tracer.Close() })
	set, err := partition.New(parts, func(p int) (*core.Engine, error) {
		db := core.NewDB()
		kv := db.MustCreateTable(spi.MustSchema("kv", []spi.Column{
			{Name: "k", Kind: spi.KindInt},
			{Name: "v", Kind: spi.KindInt},
		}, "k"))
		for k := int64(1); k <= lockerKeys; k++ {
			if err := kv.Insert(spi.Row{spi.I64(k), spi.I64(0)}); err != nil {
				return nil, err
			}
		}
		eng := core.New(db, b.tables,
			core.WithMode(core.ModeACC),
			core.WithWaitTimeout(waitTimeout),
			core.WithTracer(sys.tracer),
			core.WithEngineLabel(fmt.Sprintf("partition %d", p)),
		)
		registerLockerTypes(eng, b)
		return eng, nil
	}, partition.WithTracer(sys.tracer))
	if err != nil {
		t.Fatal(err)
	}
	sys.set = set
	set.SetRoute("locker", partition.Route{
		Home: func(args any) int { return args.(*lockerArgs).Home },
		Split: func(args any) []partition.Shot {
			var shots []partition.Shot
			for _, p := range args.(*lockerArgs).Remote {
				shots = append(shots, partition.Shot{Partition: p.Part, Type: "poke", Args: p})
			}
			return shots
		},
	})
	pokeHome := func(args any) int { return args.(*pokeArgs).Part }
	set.SetRoute("poke", partition.Route{Home: pokeHome})
	set.SetRoute("poke_undo", partition.Route{Home: pokeHome})
	set.SetUndo("poke", partition.UndoSpec{Type: "poke_undo"})
	return sys
}

func addKV(tc *core.Ctx, key, delta int64) error {
	return tc.Update("kv", []spi.Value{spi.I64(key)}, func(row spi.Row) error {
		row[1] = spi.I64(row[1].Int64() + delta)
		return nil
	})
}

func appendPoke(dst []byte, v any) []byte {
	a := v.(*pokeArgs)
	return fmt.Appendf(dst, "%d %d %d", a.Part, a.Key, a.Then)
}

func decodePoke(data []byte) (any, error) {
	a := &pokeArgs{}
	if _, err := fmt.Sscanf(string(data), "%d %d %d", &a.Part, &a.Key, &a.Then); err != nil {
		return nil, err
	}
	return a, nil
}

// lockerInterference is the design-time registration of the locker system:
// a two-step home transaction, a single-step shot, and its undo. No
// interference freedoms are declared, so every conflicting access waits —
// which is the point: the tests need the waits.
type lockerInterference struct {
	tables                             *interference.Tables
	txnLocker, txnPoke, txnPokeUndo    interference.TxnTypeID
	stGrab, stHook, stPoke, stPokeUndo interference.StepTypeID
	stComp                             interference.StepTypeID
}

func newInterference() *lockerInterference {
	b := interference.NewBuilder()
	li := &lockerInterference{}
	li.txnLocker = b.TxnType("locker", 2)
	li.txnPoke = b.TxnType("poke", 1)
	li.txnPokeUndo = b.TxnType("poke_undo", 1)
	li.stGrab = b.StepType("grab")
	li.stHook = b.StepType("hook")
	li.stPoke = b.StepType("poke")
	li.stPokeUndo = b.StepType("poke-undo")
	li.stComp = b.StepType("comp")
	li.tables = b.Build()
	return li
}

func registerLockerTypes(eng *core.Engine, li *lockerInterference) {
	eng.MustRegister(&core.TxnType{
		Name: "locker",
		ID:   li.txnLocker,
		Steps: []core.Step{
			{Name: "grab", Type: li.stGrab, Body: func(tc *core.Ctx) error {
				a := tc.Args().(*lockerArgs)
				if err := addKV(tc, a.LocalKey, 1); err != nil {
					return err
				}
				// The tests hold the row here until the peers hold theirs, so
				// that every transaction enters its shot phase with its home
				// row marked; a retried step passes straight through.
				if a.grabbed != nil {
					a.once.Do(a.grabbed)
				}
				return nil
			}},
			{Name: "hook", Type: li.stHook, Body: func(tc *core.Ctx) error {
				a := tc.Args().(*lockerArgs)
				if hook, ok := partition.HookFrom(tc.Context()); ok {
					if err := hook(); err != nil {
						return err
					}
				}
				if a.Then != 0 {
					if err := addKV(tc, a.Then, 100); err != nil {
						return err
					}
				}
				if a.Fail {
					return errLockerFail
				}
				return nil
			}},
		},
		Comp: &core.Compensation{
			Type: li.stComp,
			Body: func(tc *core.Ctx, completed int) error {
				if completed < 1 {
					return nil
				}
				return addKV(tc, tc.Args().(*lockerArgs).LocalKey, -1)
			},
		},
	})
	poke := func(sign int64) func(tc *core.Ctx) error {
		return func(tc *core.Ctx) error {
			a := tc.Args().(*pokeArgs)
			if err := addKV(tc, a.Key, sign*10); err != nil {
				return err
			}
			if sign < 0 && a.between != nil {
				a.once.Do(a.between)
			}
			if a.Then == 0 {
				return nil
			}
			return addKV(tc, a.Then, sign*10)
		}
	}
	eng.MustRegister(&core.TxnType{
		Name: "poke", ID: li.txnPoke,
		Steps:      []core.Step{{Name: "poke", Type: li.stPoke, Body: poke(1)}},
		AppendArgs: appendPoke,
		DecodeArgs: decodePoke,
	})
	eng.MustRegister(&core.TxnType{
		Name: "poke_undo", ID: li.txnPokeUndo,
		Steps:      []core.Step{{Name: "poke-undo", Type: li.stPokeUndo, Body: poke(-1)}},
		AppendArgs: appendPoke,
		DecodeArgs: decodePoke,
	})
}

// TestSetExec: the Set's entry point keeps the engine's contract — unknown
// name, closed, cancelled — and runs a versioned-tier read on the instance's
// home partition without counting it as routed work or splitting it.
func TestSetExec(t *testing.T) {
	scale := smallScale(2)
	set := buildTPCCSet(t, 2, scale, 1, "")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	status := func(w int64) core.Request {
		return core.Request{Name: "order_status", Args: &tpcc.OrderStatusArgs{WID: w, DID: 1, CID: 1}}
	}

	if err := set.Exec(context.Background(), core.Request{Name: "nope"}); !errors.Is(err, core.ErrUnknownTxnType) {
		t.Errorf("unknown name: %v", err)
	}
	if err := set.Exec(canceled, status(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: %v", err)
	}
	for _, tier := range []core.ReadTier{core.TierLocked, core.TierASAP, core.TierReadCommitted, core.TierSnapshot} {
		req := status(2) // warehouse 2 lives on partition 1
		req.Tier = tier
		opened := set.Engine(1).Versions().SnapshotsOpened
		if err := set.Exec(context.Background(), req); err != nil {
			t.Errorf("%s: %v", tier, err)
		}
		if tier == core.TierSnapshot && set.Engine(1).Versions().SnapshotsOpened != opened+1 {
			t.Errorf("snapshot read of warehouse 2 did not run on partition 1")
		}
	}
	// Routing precedes the engine's own checks, so the cancelled request
	// counts too; the versioned-tier reads do not.
	if st := set.Snapshot(); st.SingleRouted != 2 || st.CrossStarted != 0 {
		t.Errorf("stats = %+v, want the two locked requests counted as routed", st)
	}
	set.Close()
	if err := set.Exec(context.Background(), status(1)); !errors.Is(err, core.ErrEngineClosed) {
		t.Errorf("closed set: %v", err)
	}
}
