// Benchmarks regenerating the paper's evaluation (§5). One benchmark per
// figure plus the server-count experiment described in the text. Each
// benchmark runs a shortened version of the corresponding accbench
// experiment (cmd/accbench regenerates the full curves) and reports the
// paper's ratio as a custom metric:
//
//	ratio/resp   baseline mean response time / ACC mean response time
//	             (>1: the ACC is faster — the ordinate of Figures 2-4)
//	ratio/tput   baseline completions / ACC completions (Figure 4)
//
// Absolute numbers depend on the host; the shape — ACC slightly behind at
// low concurrency, ahead under contention, behind with one server — is the
// reproduction target. See EXPERIMENTS.md for recorded full-length results.
package main

import (
	"testing"
	"time"

	"accdb/internal/experiment"
)

// benchConfig shortens the defaults so `go test -bench=.` stays tractable.
func benchConfig() experiment.Config {
	cfg := experiment.Defaults()
	cfg.Duration = 1500 * time.Millisecond
	cfg.Warmup = 300 * time.Millisecond
	return cfg
}

func reportPoint(b *testing.B, p *experiment.Point) {
	b.ReportMetric(p.RespRatio(), "ratio/resp")
	b.ReportMetric(p.TputRatio(), "ratio/tput")
	b.ReportMetric(p.ACC.Throughput, "acc-txn/s")
	b.ReportMetric(p.Baseline.Throughput, "base-txn/s")
}

func comparePoint(b *testing.B, cfg experiment.Config) {
	b.Helper()
	var last *experiment.Point
	for i := 0; i < b.N; i++ {
		p, err := experiment.Compare(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = p
	}
	reportPoint(b, last)
}

// BenchmarkFig2Hotspots regenerates Figure 2 (the effect of hotspots): the
// response-time ratio under the standard uniform district distribution and
// under the skewed distribution that concentrates load on one district. The
// paper's result: the skewed ratio exceeds the standard ratio, both above 1
// at high terminal counts.
func BenchmarkFig2Hotspots(b *testing.B) {
	for _, sub := range []struct {
		name string
		skew float64
	}{
		{"standard", 0},
		{"skewed", 0.5},
	} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Terminals = 48
			cfg.Skew = sub.skew
			comparePoint(b, cfg)
		})
	}
}

// BenchmarkFig3ComputeTime regenerates Figure 3 (the effect of transaction
// duration): inter-statement compute time inside new-order and delivery
// stretches lock hold times; the paper's result is a higher ratio with
// compute time than without.
func BenchmarkFig3ComputeTime(b *testing.B) {
	for _, sub := range []struct {
		name    string
		compute time.Duration
	}{
		{"without-compute", 0},
		{"with-compute", 500 * time.Microsecond},
	} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Terminals = 48
			cfg.ComputeTime = sub.compute
			comparePoint(b, cfg)
		})
	}
}

// BenchmarkFig4Throughput regenerates Figure 4 (response time and
// throughput) at three points of the terminal sweep: below the crossover
// (ratio < 1: the ACC's end-of-step processing, one server CPU charge per
// end-of-step record, costs more than contention saves), near it, and above
// it (ratio > 1, throughput ratio < 1).
func BenchmarkFig4Throughput(b *testing.B) {
	for _, terminals := range []int{8, 24, 48} {
		b.Run(map[int]string{8: "low-8term", 24: "mid-24term", 48: "high-48term"}[terminals],
			func(b *testing.B) {
				cfg := benchConfig()
				cfg.Terminals = terminals
				comparePoint(b, cfg)
			})
	}
}

// BenchmarkExp4Servers regenerates the fourth experiment (described in §5.3,
// figure not shown): with a single database server the server is the
// bottleneck and the ACC's extra end-of-step processing makes it slightly
// slower; with several servers lock contention dominates and the ACC wins.
func BenchmarkExp4Servers(b *testing.B) {
	for _, servers := range []int{1, 3} {
		b.Run(map[int]string{1: "one-server", 3: "three-servers"}[servers],
			func(b *testing.B) {
				cfg := benchConfig()
				cfg.Terminals = 48
				cfg.Servers = servers
				comparePoint(b, cfg)
			})
	}
}
