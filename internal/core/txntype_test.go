package core

import (
	"slices"
	"testing"
)

// TestActiveAssertions: a step locks its own precondition and the next
// step's, each assertion once, and a step whose successor needs nothing new
// (new-order's order-line steps) reuses its own list without allocating.
func TestActiveAssertions(t *testing.T) {
	a, b, c := &Assertion{ID: 1}, &Assertion{ID: 2}, &Assertion{ID: 3}
	steps := []Step{
		{Pre: nil},
		{Pre: []*Assertion{a}},
		{Pre: []*Assertion{a}},
		{Pre: []*Assertion{a, b}},
		{Pre: []*Assertion{b, c}},
		{Pre: nil},
		{Pre: []*Assertion{c}},
	}
	want := [][]*Assertion{
		{a},       // none + a
		{a},       // a + a
		{a, b},    // a + a, b
		{a, b, c}, // a, b + b, c
		{b, c},    // b, c + none
		{c},       // none + c
		{c},       // last step
	}
	for j := range steps {
		if got := activeAssertions(steps, j); !slices.Equal(got, want[j]) {
			t.Errorf("step %d: %v, want %v", j, got, want[j])
		}
	}
	if n := testing.AllocsPerRun(100, func() { activeAssertions(steps, 1) }); n != 0 {
		t.Errorf("next ⊆ current: %.1f allocs/op, want 0", n)
	}
}
