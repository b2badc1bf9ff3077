package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkSnapshotRead contrasts the two ways a read-only transaction can
// execute while writers churn the same keys: through the lock manager
// (TierLocked — shared row locks, waits-for membership, deadlock exposure) and
// through the version chains (TierSnapshot — zero locks). The locked path
// serializes against the writer stream, so its aggregate throughput flatlines
// as reader goroutines are added; the snapshot path never touches the lock
// manager and scales with the readers. CI records this as BENCH_read.json;
// EXPERIMENTS.md has recorded curves.
func BenchmarkSnapshotRead(b *testing.B) {
	for _, tier := range []ReadTier{TierLocked, TierSnapshot} {
		for _, readers := range []int{1, 2, 4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/readers-%d", tier, readers), func(b *testing.B) {
				benchRead(b, tier, readers)
			})
		}
	}
}

func benchRead(b *testing.B, tier ReadTier, readers int) {
	s := newTestSys(b, ModeACC, func(o *Options) { o.VersionGCInterval = 10 * time.Millisecond })
	defer s.eng.Close()
	registerAudit(b, s)

	// Two writers keep the hot keys churning for the whole measurement, so
	// locked readers actually contend and snapshot readers actually resolve
	// through live chains.
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			from := int64(w*3) + 1 // writers on disjoint (from,to) pairs: no writer-writer deadlock
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := s.eng.Run("transfer", &transferArgs{From: from, To: from + 1, Amount: 1})
				if err != nil && !Retryable(err) && !errors.Is(err, ErrAborted) {
					b.Error(err)
					return
				}
			}
		}(w)
	}

	b.ResetTimer()
	var rg sync.WaitGroup
	per := b.N / readers
	for r := 0; r < readers; r++ {
		n := per
		if r == readers-1 {
			n = b.N - per*(readers-1)
		}
		rg.Add(1)
		go func(n int) {
			defer rg.Done()
			a := &auditArgs{}
			for i := 0; i < n; i++ {
				err := s.eng.Exec(context.Background(), Request{Name: "audit", Args: a, Tier: tier})
				if err != nil && !Retryable(err) {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	rg.Wait()
	b.StopTimer()
	close(stop)
	writers.Wait()
}
