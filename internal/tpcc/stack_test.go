package tpcc

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/metrics"
	"accdb/internal/spi"
	"accdb/internal/wal"
)

// dumpTables renders every row of every table, keyed table/primary-key, so
// two databases compare with one DeepEqual.
func dumpTables(db *core.DB) map[string]string {
	out := map[string]string{}
	names := db.Store().Names()
	sort.Strings(names)
	for _, name := range names {
		db.Table(name).Scan(func(pk spi.Key, row spi.Row) bool {
			out[fmt.Sprintf("%s/%x", name, pk)] = fmt.Sprint(row)
			return true
		})
	}
	return out
}

// TestSetOfOneIsTheEngine is the differential test behind "a single engine
// is a partition set of one": one seeded, sequential TPC-C stream — one
// terminal, a fifth of the new-orders forced to roll back — is fed to a bare
// core.Engine assembled by hand and to the Set of a one-partition Stack, and
// must produce the same outcome request by request, the same engine counters
// and the same final database.
func TestSetOfOneIsTheEngine(t *testing.T) {
	scale := smallScale()
	eng, _ := testSystem(t, core.ModeACC, scale) // loads with seed 42
	defer eng.Close()
	st, err := NewStack(StackConfig{
		Partitions: 1, Scale: scale, Seed: 42,
		Engine: []core.Option{core.WithMode(core.ModeACC), core.WithWaitTimeout(20 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !reflect.DeepEqual(dumpTables(eng.DB()), dumpTables(st.DBs()[0])) {
		t.Fatal("the stack of one loaded a different initial database")
	}

	wcfg := DefaultWorkloadConfig(scale)
	wcfg.RollbackPercent = 20
	wEng, wSet := NewWorkload(eng, wcfg), NewWorkload(st.Set, wcfg)
	rEng, rSet := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	rolledBack := 0
	for i := 0; i < 600; i++ {
		nameA, argsA := wEng.DrawArgs(rEng, 0)
		nameB, argsB := wSet.DrawArgs(rSet, 0)
		outA, errA := wEng.Run(nameA, argsA)
		outB, errB := wSet.Run(nameB, argsB)
		if nameA != nameB || outA != outB || fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("request %d diverged: engine %s %v (%v), set %s %v (%v)",
				i, nameA, outA, errA, nameB, outB, errB)
		}
		if outA != metrics.Committed {
			rolledBack++
		}
	}
	if rolledBack == 0 {
		t.Fatal("the stream forced no rollback; the comparison never saw a compensation")
	}

	one := st.Set.Engine(0)
	if got, want := one.Snapshot(), eng.Snapshot(); got != want {
		t.Errorf("engine counters: set of one %+v, bare engine %+v", got, want)
	}
	if eng.Snapshot().Compensations == 0 {
		t.Error("no compensation ran; the stream is too tame to tell the paths apart")
	}
	if !reflect.DeepEqual(wEng.Holes(), wSet.Holes()) {
		t.Errorf("order-number holes differ: %v vs %v", wEng.Holes(), wSet.Holes())
	}
	if !reflect.DeepEqual(dumpTables(eng.DB()), dumpTables(one.DB())) {
		t.Error("final table contents differ")
	}
	if rs := st.Set.Snapshot(); rs.CrossStarted != 0 || rs.SingleRouted == 0 {
		t.Errorf("routing = %+v, want every request on the direct path", rs)
	}
	for _, err := range st.Check(wSet.Holes()) {
		t.Error(err)
	}
}

// TestStackReopensUsedDirectory: a stack opened on a WAL directory that
// already holds records says so, because the fresh database it loaded knows
// nothing of them. The crash harness's answer is to go on to Set.Recover,
// which must bring the committed work back; accd's is to refuse to serve
// (cmd/accd's test drives that half).
func TestStackReopensUsedDirectory(t *testing.T) {
	cfg := StackConfig{
		Partitions: 2, Scale: smallScale(), Seed: 3, WALDir: t.TempDir(),
		Engine: []core.Option{core.WithWaitTimeout(20 * time.Second)},
	}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Used) != 0 {
		t.Fatalf("fresh directory reported used logs %v", st.Used)
	}
	w := NewWorkload(st.Set, DefaultWorkloadConfig(st.Scale))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		if _, err := w.Run(w.DrawArgs(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var commits uint64
	for _, e := range st.Set.Engines() {
		commits += e.Snapshot().Commits
	}
	before := [2]map[string]string{dumpTables(st.DBs()[0]), dumpTables(st.DBs()[1])}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	want := []string{filepath.Join(cfg.WALDir, "p0"), filepath.Join(cfg.WALDir, "p1")}
	if !reflect.DeepEqual(st2.Used, want) {
		t.Fatalf("Used = %v, want %v", st2.Used, want)
	}
	res, err := st2.Set.Recover()
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, pr := range res.Partitions {
		recovered += pr.Committed
	}
	if uint64(recovered) != commits {
		t.Errorf("recovery found %d committed transactions, the first run committed %d", recovered, commits)
	}
	for p, db := range st2.DBs() {
		if !reflect.DeepEqual(dumpTables(db), before[p]) {
			t.Errorf("partition %d: recovered database differs from the one that was closed", p)
		}
	}
	for _, err := range st2.Check(w.Holes()) {
		t.Error(err)
	}
}

// TestStackRejectsBadPartitionCounts: the count is validated, not coerced.
func TestStackRejectsBadPartitionCounts(t *testing.T) {
	for _, n := range []int{0, -3} {
		if st, err := NewStack(StackConfig{Partitions: n, Scale: smallScale(), Seed: 1}); err == nil {
			st.Close()
			t.Errorf("NewStack accepted %d partitions", n)
		}
	}
}

// TestStackForceLatencyReachesEveryLog: StackConfig.WAL sets the simulated
// force time of every partition's memory log, not only of disk logs — the
// paper's testbed (experiment.Run) sets it there and nowhere else, so a
// dropped force would read as a speedup.
func TestStackForceLatencyReachesEveryLog(t *testing.T) {
	const d = 100 * time.Microsecond
	for _, n := range []int{1, 4} {
		st, err := NewStack(StackConfig{Partitions: n, Scale: smallScale(), Seed: 1, WAL: wal.Options{ForceLatency: d}})
		if err != nil {
			t.Fatal(err)
		}
		for p, l := range st.Logs() {
			if l.ForceLatency != d {
				t.Errorf("%d partitions: partition %d forces in %v, want %v", n, p, l.ForceLatency, d)
			}
		}
		st.Close()
	}
}
