package tpcc

import (
	"errors"
	"math/rand"
	"testing"

	"accdb/internal/core"
	"accdb/internal/spi"
)

// refix replaces the TPC-C schema *s, for the rest of test t, by a copy whose
// columns are fixed exactly when fixed says so. CreateSchema then builds the
// table from the copy; the column ordinals are unchanged.
func refix(t *testing.T, s **spi.Schema, fixed func(col string) bool) {
	t.Helper()
	old := *s
	cols := make([]spi.Column, len(old.Columns))
	for i, c := range old.Columns {
		c.Fixed = fixed(c.Name)
		cols[i] = c
	}
	pk := make([]string, len(old.PK))
	for i, c := range old.PK {
		pk[i] = old.Columns[c].Name
	}
	*s = spi.MustSchema(old.Name, cols, pk...)
	t.Cleanup(func() { *s = old })
}

// TestFixedYTDFailsFirstPayment is the mutation check on the fixed-column
// declaration: a column declared fixed by mistake is not trusted silently.
// With w_ytd declared fixed beside w_tax, the first payment — whose last step
// adds to w_ytd — fails on the store's refusal.
func TestFixedYTDFailsFirstPayment(t *testing.T) {
	refix(t, &warehouseSchema, func(col string) bool { return col == "w_tax" || col == "w_ytd" })
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		eng, w := testSystem(t, mode, smallScale())
		err := eng.Run("payment", w.PaymentArgs(rand.New(rand.NewSource(1))))
		if !errors.Is(err, spi.ErrFixed) {
			t.Errorf("%v: first payment with w_ytd fixed: %v, want ErrFixed", mode, err)
		}
	}
}

// TestFixedReadsTakeNoLocks pins what the fixed columns save a new-order:
// with n lines it takes exactly 5 + n fewer lock acquisitions than the same
// order over a schema that declares nothing fixed — the IS+S pairs of its
// reads of the warehouse's w_tax and the customer's c_discount, and its one
// read of the order's item prices, IS on the item table once and S on each
// line's item — under both schedulers, and commits the same order.
func TestFixedReadsTakeNoLocks(t *testing.T) {
	orders := func(t *testing.T, mode core.Mode) (lines []int, acq []uint64, totals []int64) {
		eng, w := testSystem(t, mode, smallScale())
		r := rand.New(rand.NewSource(1))
		for len(lines) < 6 {
			a := w.NewOrderArgs(r)
			if a.InvalidItem {
				continue
			}
			before := eng.Locks().Stats().Acquisitions
			if err := eng.Run("new_order", a); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			lines = append(lines, len(a.Lines))
			acq = append(acq, eng.Locks().Stats().Acquisitions-before)
			totals = append(totals, a.Total)
		}
		return lines, acq, totals
	}
	for _, mode := range []core.Mode{core.ModeACC, core.ModeBaseline} {
		lines, free, totals := orders(t, mode)
		t.Run(mode.String(), func(t *testing.T) {
			unfixed := func(string) bool { return false }
			refix(t, &warehouseSchema, unfixed)
			refix(t, &customerSchema, unfixed)
			refix(t, &itemSchema, unfixed)
			lines2, locked, totals2 := orders(t, mode)
			for i, n := range lines {
				if lines2[i] != n || totals2[i] != totals[i] {
					t.Fatalf("order %d: %d lines, total %d without fixed columns; %d, %d with", i, lines2[i], totals2[i], n, totals[i])
				}
				if saved := int(locked[i]) - int(free[i]); saved != 5+n {
					t.Errorf("order %d, %d lines: %d acquisitions with fixed columns, %d without: saves %d, want 5+n = %d",
						i, n, free[i], locked[i], saved, 5+n)
				}
			}
		})
	}
}
