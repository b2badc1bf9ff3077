package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"accdb/internal/spi"
)

// invRows builds inventory rows from (region, sku) pairs, qty = sku.
func invRows(pairs ...[2]int64) []spi.Row {
	rows := make([]spi.Row, len(pairs))
	for i, p := range pairs {
		rows[i] = spi.Row{spi.I64(p[0]), spi.I64(p[1]), spi.I64(p[1])}
	}
	return rows
}

// invContents is the inventory table's rows by key.
func invContents(s *opSys) map[spi.Key]spi.Row {
	out := map[spi.Key]spi.Row{}
	s.inv.Scan(func(pk spi.Key, row spi.Row) bool {
		out[pk] = row
		return true
	})
	return out
}

// TestInsertIsOneStatement: on the simulated testbed one Insert is one
// statement whatever its row count — the service time the paper's model
// charges a multi-row INSERT — and every row goes in.
func TestInsertIsOneStatement(t *testing.T) {
	env := NewEnv(1, 0, 0)
	s := newOpSys(t, WithEnv(env))
	for _, batch := range [][]spi.Row{
		invRows([2]int64{3, 1}),
		invRows([2]int64{3, 2}, [2]int64{3, 3}, [2]int64{4, 1}),
		invRows([2]int64{5, 1}, [2]int64{5, 2}, [2]int64{5, 3}, [2]int64{5, 4}, [2]int64{5, 5},
			[2]int64{6, 1}, [2]int64{6, 2}, [2]int64{7, 1}, [2]int64{8, 1}, [2]int64{9, 1}),
	} {
		var stmts uint64
		err := s.run(t, func(tc *Ctx) error {
			before := env.Statements()
			err := tc.Insert("inventory", batch...)
			stmts = env.Statements() - before
			return err
		})
		if err != nil {
			t.Fatalf("%d rows: %v", len(batch), err)
		}
		if stmts != 1 {
			t.Errorf("%d rows: %d statements, want 1", len(batch), stmts)
		}
		for _, row := range batch {
			if !s.inv.Exists(s.inv.Schema().KeyOf(row)) {
				t.Errorf("%d rows: row %v not inserted", len(batch), row)
			}
		}
	}
}

// TestInsertLocksEveryRowBeforeItsStatement: a multi-row Insert takes X on
// every row, and on every partition it enters, before its one statement
// starts. While another transaction holds X on the last row's partition the
// insert waits having begun no statement; once it returns it holds X on each
// row and each partition.
func TestInsertLocksEveryRowBeforeItsStatement(t *testing.T) {
	for _, mode := range []Mode{ModeACC, ModeBaseline} {
		env := NewEnv(1, 0, 0)
		s := newOpSys(t, WithMode(mode), WithEnv(env))
		holding, release := make(chan struct{}), make(chan struct{})
		holder := make(chan error, 1)
		go func() {
			holder <- s.run(t, func(tc *Ctx) error {
				if err := tc.Insert("inventory", invRows([2]int64{4, 2})...); err != nil {
					return err
				}
				close(holding)
				<-release
				return nil
			})
		}()
		<-holding
		waits, stmts := s.eng.Locks().Stats().Waits, env.Statements()
		batch := invRows([2]int64{3, 1}, [2]int64{3, 2}, [2]int64{4, 1})
		inserter := make(chan error, 1)
		go func() {
			inserter <- s.run(t, func(tc *Ctx) error {
				if err := tc.Insert("inventory", batch...); err != nil {
					return err
				}
				if tc.stmts != 1 {
					t.Errorf("%v: the insert made %d statements, want 1", mode, tc.stmts)
				}
				for _, row := range batch {
					pk := s.inv.Schema().KeyOf(row)
					part, _ := s.db.partitionOf("inventory", pk)
					for _, item := range []spi.Item{spi.RowItem("inventory", pk), part} {
						if !locksOf(tc).HoldsConventional(tc.txn.info.ID, item, spi.ModeX) {
							t.Errorf("%v: no X on %v after the insert", mode, item)
						}
					}
				}
				return nil
			})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.eng.Locks().Stats().Waits == waits {
			if time.Now().After(deadline) {
				t.Fatalf("%v: the insert never waited for the last row's partition", mode)
			}
			time.Sleep(time.Millisecond)
		}
		if n := env.Statements() - stmts; n != 0 {
			t.Errorf("%v: %d statements begun before the last row's lock, want 0", mode, n)
		}
		close(release)
		if err := <-holder; err != nil {
			t.Fatalf("%v: holder: %v", mode, err)
		}
		if err := <-inserter; err != nil {
			t.Fatalf("%v: inserter: %v", mode, err)
		}
	}
}

// TestInsertRefusesUnsortedKeys: rows out of ascending key order, or two rows
// under one key, are refused before any lock is taken and before any row goes
// in; at the snapshot tier Insert is a write and is refused as one.
func TestInsertRefusesUnsortedKeys(t *testing.T) {
	for _, c := range []struct {
		name string
		rows []spi.Row
	}{
		{"descending", invRows([2]int64{3, 2}, [2]int64{3, 1})},
		{"repeated", invRows([2]int64{3, 1}, [2]int64{3, 1})},
		{"partitions descending", invRows([2]int64{4, 1}, [2]int64{3, 9})},
	} {
		s := newOpSys(t)
		before, acq := invContents(s), s.eng.Locks().Stats().Acquisitions
		err := s.run(t, func(tc *Ctx) error { return tc.Insert("inventory", c.rows...) })
		if err == nil || !strings.Contains(err.Error(), "not in strictly ascending order") {
			t.Errorf("%s: %v, want a refusal", c.name, err)
		}
		if after := s.eng.Locks().Stats().Acquisitions; after != acq {
			t.Errorf("%s: refused Insert acquired %d locks", c.name, after-acq)
		}
		if !reflect.DeepEqual(invContents(s), before) {
			t.Errorf("%s: refused Insert changed the table", c.name)
		}
	}
	s := newOpSys(t)
	err := s.runAt(t, TierSnapshot, func(tc *Ctx) error {
		return tc.Insert("inventory", invRows([2]int64{3, 1}, [2]int64{3, 2})...)
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Errorf("snapshot tier: %v, want ErrReadOnly", err)
	}
}

// TestInsertUndoneWhenARowExists: a batch whose second of three rows hits an
// existing key fails with spi.ErrDuplicate after its first row went in, and
// once the step is undone the table is as it was, under both schedulers.
func TestInsertUndoneWhenARowExists(t *testing.T) {
	for _, mode := range []Mode{ModeACC, ModeBaseline} {
		s := newOpSys(t, WithMode(mode))
		before := invContents(s)
		var inserted bool
		err := s.eng.Exec(context.Background(), Request{Type: &TxnType{
			Name: "op", ID: s.txn,
			Steps: []Step{{Name: "op", Type: s.step, Body: func(tc *Ctx) error {
				err := tc.Insert("inventory", invRows([2]int64{1, 6}, [2]int64{2, 1}, [2]int64{2, 9})...)
				inserted = s.inv.Exists(spi.EncodeKey(spi.I64(1), spi.I64(6)))
				return err
			}}},
		}})
		if !errors.Is(err, spi.ErrDuplicate) {
			t.Fatalf("%v: %v, want spi.ErrDuplicate", mode, err)
		}
		if !inserted {
			t.Errorf("%v: the row before the existing key was not in when Insert returned", mode)
		}
		if !reflect.DeepEqual(invContents(s), before) {
			t.Errorf("%v: the undone step left the table changed", mode)
		}
	}
}
