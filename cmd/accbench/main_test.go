package main

import "testing"

// TestCheckExperiment: every name the dispatcher knows (and "all") passes;
// anything else is an error rather than a run that does nothing and exits 0.
func TestCheckExperiment(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"all", true}, {"fig2", true}, {"fig3", true}, {"fig4", true},
		{"servers", true},
		{"", false}, {"fig", false}, {"fig5", false}, {"Fig2", false},
		{"fig2 ", false}, {"fig2,fig3", false}, {"ledger", false},
		{"ablation", false},
	} {
		if err := checkExperiment(c.name); (err == nil) != c.ok {
			t.Errorf("checkExperiment(%q) = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
