package main

import (
	"fmt"
	"os"
	"path/filepath"

	"accdb/internal/experiment"
	"accdb/internal/fault"
)

// runFault drives the -fault flag: one crash-matrix case (or all of them)
// from the command line, printing the same verdicts the TestCrashMatrix
// harness asserts. A case is identified by its (point, seed, nth) triple and
// replays deterministically, so a failing case reported here can be handed
// to a test verbatim.
func runFault(name string, nth uint64, seed int64, walDir string) {
	points := fault.Points()
	if name == "list" {
		fmt.Printf("%-28s %-6s %s\n", "POINT", "EFFECT", "DESCRIPTION")
		for _, p := range points {
			fmt.Printf("%-28s %-6s %s\n", p.Name, p.Effect, p.Desc)
		}
		return
	}

	var cases []fault.Info
	if name == "all" {
		cases = points
	} else {
		for _, p := range points {
			if p.Name == name {
				cases = []fault.Info{p}
				break
			}
		}
		if cases == nil {
			fatal(fmt.Errorf("unknown fault point %q (use -fault list)", name))
		}
	}

	if walDir == "" {
		dir, err := os.MkdirTemp("", "accbench-fault-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}

	failed := 0
	for _, p := range cases {
		dir := filepath.Join(walDir, p.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		// RunCrash picks the deployment: coordinator points crash four
		// partitions under a remote-heavy mix, every other point the default
		// one-partition stack.
		res, err := experiment.RunCrash(experiment.CrashConfig{
			Point:  p,
			Nth:    nth,
			Seed:   seed,
			WALDir: dir,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p.Name, err))
		}
		verdict := "ok"
		if !res.Fired {
			verdict = "DID NOT FIRE"
		}
		if len(res.Violations)+len(res.RerunViolations) > 0 {
			verdict = "INCONSISTENT"
		}
		if len(res.LostAcks) > 0 {
			verdict = "LOST ACKS"
		}
		if verdict != "ok" {
			failed++
		}
		fmt.Printf("%-28s fired=%-5v committed=%-5d compensated=%-4d forward=%-2d undone=%-2d lost_acks=%-2d rerun=%-5d %s\n",
			p.Name, res.Fired, res.Committed, res.Compensated, res.ForwardDriven, res.Undone, len(res.LostAcks), res.RerunCompleted, verdict)
		if res.TornTail != nil {
			fmt.Printf("%-28s torn tail at offset %d (%d bytes discarded)\n",
				"", res.TornTail.Offset, res.TornTail.DiscardedBytes)
		}
		for _, v := range res.Violations {
			fmt.Printf("%-28s recovered state: %v\n", "", v)
		}
		for _, v := range res.RerunViolations {
			fmt.Printf("%-28s after re-run: %v\n", "", v)
		}
		for _, l := range res.LostAcks {
			fmt.Printf("%-28s acknowledged but lost: %s\n", "", l)
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d crash cases failed", failed, len(cases)))
	}
}
