package interference

import (
	"strings"
	"testing"
	"testing/quick"

	"accdb/internal/assertion"
)

func TestBuilderRegistration(t *testing.T) {
	b := NewBuilder()
	txn := b.TxnType("transfer", 2)
	step := b.StepType("debit")
	a := b.Assertion("in-flight")
	tab := b.Build()
	if tab.TxnName(txn) != "transfer" || tab.StepName(step) != "debit" || tab.AssertionName(a) != "in-flight" {
		t.Error("name registration broken")
	}
	if tab.Steps(txn) != 2 {
		t.Error("step count lost")
	}
	if tab.TxnName(999) == "" || tab.StepName(999) == "" || tab.AssertionName(999) == "" {
		t.Error("unknown ids should render placeholders")
	}
	if tab.TxnName(LegacyTxn) != "<legacy>" || tab.StepName(LegacyStep) != "<legacy>" {
		t.Error("legacy names wrong")
	}
}

func TestConservativeDefaults(t *testing.T) {
	b := NewBuilder()
	txn := b.TxnType("t", 1)
	step := b.StepType("s")
	a := b.Assertion("a")
	tab := b.Build()
	// Everything interferes and nothing interleaves until declared.
	if !tab.Interferes(step, a) {
		t.Error("unknown pair should interfere")
	}
	if tab.MayInterleave(step, txn, 0) {
		t.Error("unknown step should not interleave")
	}
	if !tab.PrefixInterferes(txn, 1, a) {
		t.Error("unknown prefix should interfere")
	}
	// Legacy is always conservative.
	if !tab.Interferes(LegacyStep, a) || tab.MayInterleave(LegacyStep, txn, 0) ||
		tab.MayInterleave(step, LegacyTxn, 0) || !tab.PrefixInterferes(LegacyTxn, 0, a) {
		t.Error("legacy must stay conservative")
	}
}

func TestDeclarations(t *testing.T) {
	b := NewBuilder()
	txn := b.TxnType("t", 3)
	s1 := b.StepType("s1")
	s2 := b.StepType("s2")
	a := b.Assertion("a")
	b.NoInterference(s1, a)
	b.PrefixSafe(txn, 2, a)
	b.AllowInterleave(txn, 1, s2)
	tab := b.Build()
	if tab.Interferes(s1, a) {
		t.Error("declared NoInterference ignored")
	}
	if !tab.Interferes(s2, a) {
		t.Error("undeclared pair must interfere")
	}
	if tab.PrefixInterferes(txn, 1, a) == false {
		t.Error("prefix 1 undeclared, must interfere")
	}
	if tab.PrefixInterferes(txn, 2, a) {
		t.Error("declared PrefixSafe ignored")
	}
	// Breakpoint-specific interleaving.
	if !tab.MayInterleave(s2, txn, 1) {
		t.Error("declared breakpoint ignored")
	}
	if tab.MayInterleave(s2, txn, 2) {
		t.Error("interleave must be breakpoint-specific")
	}
}

func TestAllowInterleaveEverywhere(t *testing.T) {
	b := NewBuilder()
	txn := b.TxnType("t", 5)
	s := b.StepType("s")
	b.AllowInterleaveEverywhere(s, txn)
	tab := b.Build()
	for bp := 0; bp < 5; bp++ {
		if !tab.MayInterleave(s, txn, bp) {
			t.Fatalf("breakpoint %d not allowed", bp)
		}
	}
}

func TestStringDump(t *testing.T) {
	b := NewBuilder()
	s := b.StepType("pay")
	a := b.Assertion("I1")
	b.NoInterference(s, a)
	tab := b.Build()
	out := tab.String()
	if !strings.Contains(out, "pay") || !strings.Contains(out, "I1") {
		t.Errorf("String() = %q", out)
	}
}

// --- analyzer ---------------------------------------------------------------

// The paper's §5.1 example: updates to the district counter (new-order) and
// to the district year-to-date (payment) do not interfere, because the
// columns are disjoint; the analyzer must prove it.
func TestAnalyzerDistrictExample(t *testing.T) {
	b := NewBuilder()
	noStep := b.StepType("NO1")
	payStep := b.StepType("P2")
	an := NewAnalyzer(b)
	// Assertion used by new-order between steps: "the counter has the value
	// I read" — footprint is district.d_next_o_id.
	counterA := an.DeclareAssertion("counter-stable", assertion.ForAll{
		Table: "district",
		Body: assertion.Cmp{
			Op: assertion.GE,
			L:  assertion.Col{Table: "district", Column: "d_next_o_id"},
			R:  assertion.I64(0),
		},
	})
	an.DeclareStep(StepFootprint{
		Step:    noStep,
		Updates: map[string][]string{"district": {"d_next_o_id"}},
	})
	an.DeclareStep(StepFootprint{
		Step:    payStep,
		Updates: map[string][]string{"district": {"d_ytd"}},
	})
	proved := an.Derive()
	tab := b.Build()
	if proved != 1 {
		t.Fatalf("proved %d pairs, want 1", proved)
	}
	if tab.Interferes(payStep, counterA) {
		t.Error("payment's d_ytd update must not interfere with the counter assertion")
	}
	if !tab.Interferes(noStep, counterA) {
		t.Error("new-order's counter update must interfere")
	}
}

func TestAnalyzerStructuralInterference(t *testing.T) {
	countFp := assertion.FootprintOf(assertion.CountEq{
		Table:  "orderlines",
		Where:  []assertion.Binding{{Column: "order_id", Value: assertion.I64(1)}},
		Equals: assertion.I64(3),
	})
	insertStep := StepFootprint{Step: 1, Structural: []string{"orderlines"}}
	if !Interferes(insertStep, countFp) {
		t.Error("insert into quantified table must interfere with a count")
	}
	otherInsert := StepFootprint{Step: 2, Structural: []string{"stock"}}
	if Interferes(otherInsert, countFp) {
		t.Error("insert into unrelated table must not interfere")
	}
	// A structural change also threatens plain column references (deleting
	// an Exists witness).
	existsFp := assertion.FootprintOf(assertion.Exists{
		Table: "orderlines",
		Body: assertion.Cmp{
			Op: assertion.GT,
			L:  assertion.Col{Table: "orderlines", Column: "filled"},
			R:  assertion.I64(0),
		},
	})
	if !Interferes(insertStep, existsFp) {
		t.Error("structural change must interfere with column readers of the table")
	}
}

func TestAnalyzerUpdateColumnDisjointness(t *testing.T) {
	fp := assertion.FootprintOf(assertion.ForAll{
		Table: "stock",
		Body: assertion.Cmp{
			Op: assertion.GE,
			L:  assertion.Col{Table: "stock", Column: "level"},
			R:  assertion.I64(0),
		},
	})
	touches := StepFootprint{Step: 1, Updates: map[string][]string{"stock": {"level"}}}
	misses := StepFootprint{Step: 2, Updates: map[string][]string{"stock": {"ytd"}}}
	if !Interferes(touches, fp) {
		t.Error("update of read column must interfere")
	}
	if Interferes(misses, fp) {
		t.Error("update of disjoint column must not interfere")
	}
}

// Property: the analyzer is monotone — adding updates to a step can only
// add interference, never remove it.
func TestAnalyzerMonotoneQuick(t *testing.T) {
	fp := assertion.FootprintOf(assertion.ForAll{
		Table: "t",
		Body: assertion.Cmp{
			Op: assertion.EQ,
			L:  assertion.Col{Table: "t", Column: "c0"},
			R:  assertion.I64(0),
		},
	})
	cols := []string{"c0", "c1", "c2", "c3"}
	f := func(mask, extra uint8) bool {
		var base, more []string
		for i, c := range cols {
			if mask&(1<<i) != 0 {
				base = append(base, c)
			}
		}
		more = append(more, base...)
		more = append(more, cols[int(extra)%len(cols)])
		small := StepFootprint{Step: 1, Updates: map[string][]string{"t": base}}
		big := StepFootprint{Step: 1, Updates: map[string][]string{"t": more}}
		if Interferes(small, fp) && !Interferes(big, fp) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
