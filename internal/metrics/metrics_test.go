package metrics

import (
	"testing"
	"time"
)

// TestPercentileInterpolation pins the satellite fix: percentiles
// interpolate between ranks instead of truncating int(p*(n-1)). With two
// samples the seed returned the smaller as p50; interpolation must land
// near the middle (within histogram bucket resolution, ~3%).
func TestPercentileInterpolation(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if p50 := h.Quantile(0.5); p50 < 15*time.Millisecond || p50 > 25*time.Millisecond {
		t.Fatalf("P50 = %v, want ≈20ms (rank interpolation)", p50)
	}
	// p=0 and p=1 stay pinned to the extremes.
	if q := h.Quantile(1); q != 30*time.Millisecond {
		t.Fatalf("Quantile(1) = %v", q)
	}
	if q := h.Quantile(0); q > 11*time.Millisecond {
		t.Fatalf("Quantile(0) = %v", q)
	}
}

func TestHistogramAccuracy(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 10000 {
		t.Fatalf("Count = %d", h.Count())
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 5000 * time.Microsecond},
		{0.95, 9500 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
	} {
		got := h.Quantile(tc.p)
		err := float64(got-tc.want) / float64(tc.want)
		if err < 0 {
			err = -err
		}
		if err > 0.05 {
			t.Fatalf("Quantile(%v) = %v, want %v ±5%%", tc.p, got, tc.want)
		}
	}
	if h.Max() != 10000*time.Microsecond {
		t.Fatalf("Max = %v (must be exact)", h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 2*time.Millisecond || a.Max() != 3*time.Millisecond {
		t.Fatalf("merged: count=%d mean=%v max=%v", a.Count(), a.Mean(), a.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Max() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestHistogramBucketsCoverInt64(t *testing.T) {
	// Every value must land in a valid bucket whose bounds contain it.
	for _, v := range []int64{0, 1, 31, 32, 33, 1023, 1 << 20, 1<<62 + 12345, 1<<63 - 1} {
		i := bucketOf(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, i)
		}
		lo, width := bucketBounds(i)
		if v < lo || (width > 0 && v >= lo+width && lo+width > lo) {
			t.Fatalf("value %d outside bucket %d bounds [%d, %d)", v, i, lo, lo+width)
		}
	}
}
