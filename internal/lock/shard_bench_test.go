package lock

import (
	"fmt"
	"sync"
	"testing"

	"accdb/internal/spi"
)

// BenchmarkLockShards measures raw Acquire/ReleaseAll throughput of the
// sharded lock table against the single-latch (shards=1) configuration, at
// 1, 8 and 32 goroutines, under a uniform key distribution (conflicts
// rare — the latch itself is the only shared state) and a skewed one (90%
// of requests on 8 hot keys, so real lock conflicts and waits dominate).
//
// The paper-figure benchmarks in /bench_test.go measure end-to-end effects;
// this one isolates the lock-manager hot path.
func BenchmarkLockShards(b *testing.B) {
	const keySpace = 4096
	items := make([]spi.Item, keySpace)
	for i := range items {
		items[i] = spi.RowItem("bench", spi.Key(fmt.Sprintf("k%06d", i)))
	}
	for _, dist := range []struct {
		name string
		skew bool
	}{
		{"uniform", false},
		{"skewed", true},
	} {
		for _, goroutines := range []int{1, 8, 32} {
			for _, cfg := range []struct {
				name   string
				shards int
			}{
				{"single-latch", 1},
				{"sharded", 0}, // 0 → default shard count
			} {
				name := fmt.Sprintf("%s/%dgoroutines/%s", dist.name, goroutines, cfg.name)
				b.Run(name, func(b *testing.B) {
					var m *Manager
					if cfg.shards == 0 {
						m = NewManager(newStub())
					} else {
						m = NewManagerWithShards(newStub(), cfg.shards)
					}
					benchAcquireRelease(b, m, goroutines, items, dist.skew)
				})
			}
		}
	}
}

func benchAcquireRelease(b *testing.B, m *Manager, goroutines int, items []spi.Item, skew bool) {
	per := b.N/goroutines + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-goroutine xorshift PRNG: no shared rand state.
			rng := uint64(g)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
			base := spi.TxnID(g) * 1_000_000_000
			for i := 0; i < per; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				var it spi.Item
				mode := spi.ModeX
				if skew && rng%10 < 9 {
					// Hot set: mostly readers, occasional writer, so the
					// bench exercises both grant sharing and real waits.
					it = items[rng%8]
					if rng%100 < 5 {
						mode = spi.ModeX
					} else {
						mode = spi.ModeS
					}
				} else {
					it = items[rng%uint64(len(items))]
				}
				txn := spi.NewTxn(base+spi.TxnID(i)+1, 1)
				if err := m.Acquire(txn, it, spi.LockRequest{Mode: mode, Step: 1}); err != nil {
					b.Error(err)
					return
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
}
