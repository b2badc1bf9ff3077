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
func itemsInDistinctShards(t *testing.T, m *Manager, n int) []Item {
	t.Helper()
	if m.ShardCount() < n {
		t.Fatalf("manager has %d shards, need %d", m.ShardCount(), n)
	}
	seen := make(map[int]bool)
	var out []Item
	for i := 0; len(out) < n && i < 100000; i++ {
		it := RowItem("t", spi.Key(fmt.Sprintf("key-%d", i)))
		idx := m.shardIndex(it)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, it)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d items in distinct shards", n)
	}
	return out
}

func TestShardRoutingSpreadsItems(t *testing.T) {
	m := NewManager(newStub())
	if m.ShardCount() < 16 {
		t.Fatalf("default shard count %d < 16", m.ShardCount())
	}
	counts := make(map[int]int)
	for i := 0; i < 4096; i++ {
		counts[m.shardIndex(RowItem("warehouse", spi.Key(fmt.Sprintf("w%d", i))))]++
	}
	if len(counts) < m.ShardCount()/2 {
		t.Fatalf("4096 keys landed on only %d of %d shards", len(counts), m.ShardCount())
	}
}

// TestCrossShardDeadlock builds a two-transaction cycle whose items live in
// different shards; the cycle closer must still be chosen as the victim.
func TestCrossShardDeadlock(t *testing.T) {
	m := NewManager(newStub())
	its := itemsInDistinctShards(t, m, 2)
	a, b := its[0], its[1]
	t1, t2 := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	m.Acquire(t1, a, conv(ModeX))
	m.Acquire(t2, b, conv(ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(t1, b, conv(ModeX)) }()
	time.Sleep(20 * time.Millisecond)
	// t2 closes the cycle across shard boundaries and must be the victim.
	if err := m.Acquire(t2, a, conv(ModeX)); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cross-shard cycle closer got %v, want ErrDeadlock", err)
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
	member := func(id TxnID, g *spi.Group) *TxnInfo {
		txn := NewTxnInfo(id, 1)
		txn.Group = g
		return txn
	}
	g1 := spi.NewGroup(1, func(cycle string) { doomed <- "g1 " + cycle })
	g2 := spi.NewGroup(2, func(cycle string) { doomed <- "g2 " + cycle })
	home1, shot1 := member(1, g1), member(2, g1) // g1: holds in m0, waits in m1
	home2, shot2 := member(1, g2), member(2, g2) // g2: holds in m1, waits in m0
	x, y := item("x"), item("y")
	m0.Acquire(home1, x, conv(ModeX))
	m1.Acquire(home2, y, conv(ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m1.Acquire(shot1, y, conv(ModeX)) }()
	waitUntil(t, func() bool { return m1.Snapshot().WaiterCount() == 1 })
	if err := m0.Acquire(shot2, x, conv(ModeX)); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cross-manager cycle closer got %v, want ErrDeadlock", err)
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
	t1, t2, t3 := NewTxnInfo(1, 1), NewTxnInfo(2, 1), NewTxnInfo(3, 1)
	m.Acquire(t1, a, conv(ModeX))
	m.Acquire(t2, b, conv(ModeX))
	m.Acquire(t3, c, conv(ModeX))
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(t1, b, conv(ModeX)) }() // t1 → t2
	time.Sleep(20 * time.Millisecond)
	got2 := make(chan error, 1)
	go func() { got2 <- m.Acquire(t2, c, conv(ModeX)) }() // t2 → t3
	time.Sleep(20 * time.Millisecond)
	// t3 → t1 closes the three-shard cycle.
	if err := m.Acquire(t3, a, conv(ModeX)); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("three-way cycle closer got %v, want ErrDeadlock", err)
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
	cs, fw := NewTxnInfo(1, 1), NewTxnInfo(2, 1)
	m.Acquire(cs, a, conv(ModeX))
	m.Acquire(fw, b, conv(ModeX))
	fwDone := make(chan error, 1)
	go func() { fwDone <- m.Acquire(fw, a, conv(ModeX)) }() // fw waits on cs
	time.Sleep(20 * time.Millisecond)
	csDone := make(chan error, 1)
	go func() {
		csDone <- m.Acquire(cs, b, Request{Mode: ModeX, Step: 1, Compensating: true})
	}()
	if err := <-fwDone; !errors.Is(err, ErrAborted) {
		t.Fatalf("forward waiter got %v, want ErrAborted", err)
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
	holder := NewTxnInfo(1, 1)
	if err := m.Acquire(holder, it, conv(ModeX)); err != nil {
		t.Fatal(err)
	}
	const rounds = 300
	for i := 0; i < rounds; i++ {
		blocked := NewTxnInfo(TxnID(i+10), 1)
		done := make(chan error, 1)
		go func() { done <- m.Acquire(blocked, it, conv(ModeX)) }()
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
		if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrAborted) {
			t.Fatalf("unexpected outcome: %v", err)
		}
	}
	// Whatever interleavings occurred, the queue must be clean: releasing
	// the holder lets a fresh acquirer through immediately.
	m.ReleaseAll(holder)
	probe := NewTxnInfo(999999, 1)
	if err := m.Acquire(probe, it, conv(ModeX)); err != nil {
		t.Fatalf("queue not clean after race rounds: %v", err)
	}
	st := m.Stats()
	if st.Waits == 0 || st.WaitNanos == 0 {
		t.Fatalf("wait stats lost on timeout/cancel paths: %+v", st)
	}
}

// TestTimedOutWaitsAttributed pins the satellite fix: a wait that ends in
// ErrTimeout must still contribute to WaitNanos and the per-class tallies.
func TestTimedOutWaitsAttributed(t *testing.T) {
	m := NewManager(newStub())
	m.WaitTimeout = 5 * time.Millisecond
	it := item("hot")
	holder := NewTxnInfo(1, 1)
	m.Acquire(holder, it, conv(ModeX))
	w := NewTxnInfo(2, 1)
	if err := m.Acquire(w, it, conv(ModeX)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	st := m.Stats()
	if st.WaitNanos == 0 {
		t.Fatal("timed-out wait missing from WaitNanos")
	}
	classes := m.ByClass()
	cs, ok := classes[it.Table+"/"+it.Level.String()+"/"+ModeX.String()]
	if !ok || cs.Waits != 1 || cs.WaitNanos == 0 {
		t.Fatalf("timed-out wait missing from per-class stats: %+v", classes)
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
				txn := NewTxnInfo(TxnID(g*1000+i+1), 1)
				it := RowItem("t", spi.Key(fmt.Sprintf("g%d-k%d", g, i%37)))
				if err := m.Acquire(txn, it, conv(ModeX)); err != nil {
					t.Error(err)
					return
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	probe := NewTxnInfo(777777, 1)
	for g := 0; g < 8; g++ {
		for i := 0; i < 37; i++ {
			it := RowItem("t", spi.Key(fmt.Sprintf("g%d-k%d", g, i)))
			if err := m.Acquire(probe, it, conv(ModeX)); err != nil {
				t.Fatalf("leaked lock on %v: %v", it, err)
			}
		}
	}
}
