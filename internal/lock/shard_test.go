package lock

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"accdb/internal/spi"
)

// itemsInDistinctShards returns n row items that all hash to different
// shards of m (so the tests provably exercise cross-shard paths).
func itemsInDistinctShards(t *testing.T, m *Manager, n int) []spi.Item {
	t.Helper()
	if m.ShardCount() < n {
		t.Fatalf("manager has %d shards, need %d", m.ShardCount(), n)
	}
	seen := make(map[*shard]bool)
	var out []spi.Item
	for i := 0; len(out) < n && i < 100000; i++ {
		it := spi.RowItem("t", spi.Key(fmt.Sprintf("key-%d", i)))
		sh, _ := m.shardOf(it)
		if !seen[sh] {
			seen[sh] = true
			out = append(out, it)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d items in distinct shards", n)
	}
	return out
}

// TestShardRoutingSpreadsItems: the one item hash spreads keys over the
// shards and, within a shard, over its buckets.
func TestShardRoutingSpreadsItems(t *testing.T) {
	m := NewManager(newStub())
	if m.ShardCount() < 16 {
		t.Fatalf("default shard count %d < 16", m.ShardCount())
	}
	shards := make(map[*shard]int)
	buckets := make(map[uint64]int)
	for i := 0; i < 4096; i++ {
		it := spi.RowItem("warehouse", spi.Key(fmt.Sprintf("w%d", i)))
		sh, h := m.shardOf(it)
		shards[sh]++
		buckets[bucketOf(h)]++
	}
	if len(shards) < m.ShardCount()/2 {
		t.Fatalf("4096 keys landed on only %d of %d shards", len(shards), m.ShardCount())
	}
	if len(buckets) < bucketCount/2 {
		t.Fatalf("4096 keys landed in only %d of %d bucket positions", len(buckets), bucketCount)
	}
}

// TestCrossShardDeadlock builds a two-transaction cycle whose items live in
// different shards; the cycle closer must still be chosen as the victim.
func TestCrossShardDeadlock(t *testing.T) {
	m := NewManager(newStub())
	its := itemsInDistinctShards(t, m, 2)
	a, b := its[0], its[1]
	t1, t2 := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	m.Acquire(t1, a, conv(spi.ModeX))
	m.Acquire(t2, b, conv(spi.ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(t1, b, conv(spi.ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	// t2 closes the cycle across shard boundaries and must be the victim.
	if err := m.Acquire(t2, a, conv(spi.ModeX)); !errors.Is(err, spi.ErrDeadlock) {
		t.Fatalf("cross-shard cycle closer got %v, want spi.ErrDeadlock", err)
	}
	m.ReleaseAll(t2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t1)
	if m.Stats().Deadlocks == 0 {
		t.Fatal("cross-shard deadlock not counted")
	}
}

// TestCrossManagerDeadlock: two global transactions, each holding a lock in
// one manager through one member and waiting in the other manager through
// another (ids repeat across managers, as across engines). Neither table holds
// a cycle; the walk follows each holder's group into the other manager. The
// closer dies and, the cycle having left its lock table, its group is doomed.
func TestCrossManagerDeadlock(t *testing.T) {
	m0, m1 := NewManager(newStub()), NewManager(newStub())
	doomed := make(chan string, 2)
	member := func(id spi.TxnID, g *spi.Group) *spi.Txn {
		txn := spi.NewTxn(id, 1)
		txn.Group = g
		return txn
	}
	g1 := spi.NewGroup(1, func(cycle string) { doomed <- "g1 " + cycle })
	g2 := spi.NewGroup(2, func(cycle string) { doomed <- "g2 " + cycle })
	home1, shot1 := member(1, g1), member(2, g1) // g1: holds in m0, waits in m1
	home2, shot2 := member(1, g2), member(2, g2) // g2: holds in m1, waits in m0
	x, y := item("x"), item("y")
	m0.Acquire(home1, x, conv(spi.ModeX))
	m1.Acquire(home2, y, conv(spi.ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m1.Acquire(shot1, y, conv(spi.ModeX)) }()
	waitUntil(t, func() bool { return m1.Snapshot().WaiterCount() == 1 })
	if err := m0.Acquire(shot2, x, conv(spi.ModeX)); !errors.Is(err, spi.ErrDeadlock) {
		t.Fatalf("cross-manager cycle closer got %v, want spi.ErrDeadlock", err)
	}
	if got := <-doomed; got != "g2 g2->g1->g2" {
		t.Fatalf("doomed %q, want the closer's group with the cycle", got)
	}
	m1.ReleaseAll(home2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	if len(doomed) != 0 || m0.Stats().Deadlocks != 1 || m1.Stats().Deadlocks != 0 {
		t.Fatalf("want one deadlock, counted where it closed, and one doom; got %d more dooms, %+v, %+v",
			len(doomed), m0.Stats(), m1.Stats())
	}
}

// TestCrossShardDeadlockThreeWay runs a three-transaction cycle spanning
// three shards (t1→t2→t3→t1).
func TestCrossShardDeadlockThreeWay(t *testing.T) {
	m := NewManager(newStub())
	its := itemsInDistinctShards(t, m, 3)
	a, b, c := its[0], its[1], its[2]
	t1, t2, t3 := spi.NewTxn(1, 1), spi.NewTxn(2, 1), spi.NewTxn(3, 1)
	m.Acquire(t1, a, conv(spi.ModeX))
	m.Acquire(t2, b, conv(spi.ModeX))
	m.Acquire(t3, c, conv(spi.ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(t1, b, conv(spi.ModeX)) }() // t1 → t2
	time.Sleep(20 * time.Millisecond)
	got2 := make(chan error, 1)
	go func() { got2 <- m.Acquire(t2, c, conv(spi.ModeX)) }() // t2 → t3
	time.Sleep(20 * time.Millisecond)
	// t3 → t1 closes the three-shard cycle.
	if err := m.Acquire(t3, a, conv(spi.ModeX)); !errors.Is(err, spi.ErrDeadlock) {
		t.Fatalf("three-way cycle closer got %v, want spi.ErrDeadlock", err)
	}
	m.ReleaseAll(t3)
	if err := <-got2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(t1)
}

// TestCrossShardCompensatingNeverVictim verifies the §3.4 victim rule
// across shard boundaries: when a compensating step closes a cross-shard
// cycle, a forward waiter on the cycle is aborted instead.
func TestCrossShardCompensatingNeverVictim(t *testing.T) {
	m := NewManager(newStub())
	its := itemsInDistinctShards(t, m, 2)
	a, b := its[0], its[1]
	cs, fw := spi.NewTxn(1, 1), spi.NewTxn(2, 1)
	m.Acquire(cs, a, conv(spi.ModeX))
	m.Acquire(fw, b, conv(spi.ModeX))
	fwDone := make(chan error, 1)
	go func() { fwDone <- m.Acquire(fw, a, conv(spi.ModeX)) }() // fw waits on cs
	time.Sleep(20 * time.Millisecond)
	csDone := make(chan error, 1)
	go func() {
		csDone <- m.Acquire(cs, b, spi.LockRequest{Mode: spi.ModeX, Step: 1, Compensating: true})
	}()
	if err := <-fwDone; !errors.Is(err, spi.ErrAborted) {
		t.Fatalf("forward waiter got %v, want spi.ErrAborted", err)
	}
	m.ReleaseAll(fw)
	if err := <-csDone; err != nil {
		t.Fatal(err)
	}
	if m.Stats().VictimsForComp != 1 {
		t.Fatalf("VictimsForComp = %d, want 1", m.Stats().VictimsForComp)
	}
}

// TestCancelWaitVsTimeoutRace hammers a victim kill against WaitTimeout expiry
// on the same waiter; run under -race it proves a waiter has exactly one
// outcome and the queue stays clean whichever side wins.
func TestCancelWaitVsTimeoutRace(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = time.Millisecond
	it := item("contended")
	holder := spi.NewTxn(1, 1)
	if err := m.Acquire(holder, it, conv(spi.ModeX)); err != nil {
		t.Fatal(err)
	}
	const rounds = 300
	for i := 0; i < rounds; i++ {
		blocked := spi.NewTxn(spi.TxnID(i+10), 1)
		done := make(chan error, 1)
		go func() { done <- m.Acquire(blocked, it, conv(spi.ModeX)) }()
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cancelWait(blocked)
			}()
		}
		err := <-done
		wg.Wait()
		if err == nil {
			t.Fatal("acquired X while another X was held")
		}
		if !errors.Is(err, spi.ErrTimeout) && !errors.Is(err, spi.ErrAborted) {
			t.Fatalf("unexpected outcome: %v", err)
		}
	}
	// Whatever interleavings occurred, the queue must be clean: releasing
	// the holder lets a fresh acquirer through immediately.
	m.ReleaseAll(holder)
	probe := spi.NewTxn(999999, 1)
	if err := m.Acquire(probe, it, conv(spi.ModeX)); err != nil {
		t.Fatalf("queue not clean after race rounds: %v", err)
	}
	st := m.Stats()
	if st.Waits == 0 || st.WaitNanos == 0 {
		t.Fatalf("wait stats lost on timeout/cancel paths: %+v", st)
	}
}

// TestTimedOutWaitsAttributed pins the satellite fix: a wait that ends in
// ErrTimeout must still contribute to WaitNanos and the per-class tallies.
// A class is keyed by the waiting step type as well: two steps that wait on
// the same item in the same mode are two classes, named by the oracle.
func TestTimedOutWaitsAttributed(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 5 * time.Millisecond
	it := item("hot")
	holder := spi.NewTxn(1, 1)
	m.Acquire(holder, it, conv(spi.ModeX))
	for id, step := range []spi.StepTypeID{2, 3, 3} {
		w := spi.NewTxn(spi.TxnID(id+2), 1)
		if err := m.Acquire(w, it, spi.LockRequest{Mode: spi.ModeX, Step: step}); !errors.Is(err, spi.ErrTimeout) {
			t.Fatalf("got %v, want spi.ErrTimeout", err)
		}
	}
	st := m.Stats()
	if st.WaitNanos == 0 {
		t.Fatal("timed-out wait missing from WaitNanos")
	}
	classes := m.ByClass()
	class := it.Table + "/" + it.Level.String() + "/" + spi.ModeX.String() + "/"
	for step, waits := range map[string]uint64{"step2": 1, "step3": 2} {
		cs, ok := classes[class+step]
		if !ok || cs.Waits != waits || cs.WaitNanos == 0 {
			t.Fatalf("timed-out waits of %s missing from per-class stats: %+v", step, classes)
		}
	}
	if len(classes) != 2 {
		t.Fatalf("classes = %+v, want one per waiting step", classes)
	}
}

// TestParallelAcquireAcrossShards is a smoke test that concurrent
// transactions on different shards proceed and release cleanly.
func TestParallelAcquireAcrossShards(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 5 * time.Second
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				txn := spi.NewTxn(spi.TxnID(g*1000+i+1), 1)
				it := spi.RowItem("t", spi.Key(fmt.Sprintf("g%d-k%d", g, i%37)))
				if err := m.Acquire(txn, it, conv(spi.ModeX)); err != nil {
					t.Error(err)
					return
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	probe := spi.NewTxn(777777, 1)
	for g := 0; g < 8; g++ {
		for i := 0; i < 37; i++ {
			it := spi.RowItem("t", spi.Key(fmt.Sprintf("g%d-k%d", g, i)))
			if err := m.Acquire(probe, it, conv(spi.ModeX)); err != nil {
				t.Fatalf("leaked lock on %v: %v", it, err)
			}
		}
	}
}
