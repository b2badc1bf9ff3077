// Package metrics holds the one latency histogram every response-time series
// uses: the latency anatomy's per-stage and per-type series (internal/trace)
// and the testbed's per-type recorder (internal/experiment).
package metrics

import (
	"math/bits"
	"time"
)

// Histogram is a fixed-size log-linear duration histogram: one octave per
// power of two of nanoseconds, each split into 2^subBits linear sub-buckets.
// Worst-case relative quantile error is 1/2^subBits (≈3% with subBits=5),
// memory is a constant ~15 KiB per series regardless of sample count —
// replacing the seed's unbounded []time.Duration, which grew without limit
// over long runs and made Summary cost O(n log n) per call.
//
// Count, Sum and Max are tracked exactly, so Mean and Max in summaries are
// precise; only the interior percentiles are bucket-estimated. Histograms
// merge by bucket-wise addition, which is how the testbed's recorder merges
// per-type series into its total.
type Histogram struct {
	counts [numBuckets]uint64
	count  uint64
	sum    int64
	max    int64
}

const (
	// subBits is the number of linear sub-bucket bits per octave.
	subBits = 5
	subMask = 1<<subBits - 1
	// numBuckets covers the full non-negative int64 range: values below
	// 2^subBits are exact, above that each octave contributes 2^subBits
	// buckets.
	numBuckets = (64 - subBits + 1) << subBits
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	shift := bits.Len64(u) - 1 - subBits
	return ((shift + 1) << subBits) + int((u>>shift)&subMask)
}

// bucketBounds returns the inclusive lower bound and the width of bucket i.
func bucketBounds(i int) (lo, width int64) {
	if i < 1<<subBits {
		return int64(i), 1
	}
	shift := i>>subBits - 1
	sub := int64(i & subMask)
	return (1<<subBits + sub) << shift, 1 << shift
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of the observations.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Max returns the exact maximum observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Sum returns the exact sum of the observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset zeroes the histogram for reuse.
func (h *Histogram) Reset() { *h = Histogram{} }

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) with linear interpolation
// between ranks: the target is the fractional rank p·(n-1), the two
// enclosing ranks are located in the cumulative distribution, and the
// result interpolates between them (observations within a bucket are
// assumed uniformly spread across it). This replaces the seed's truncating
// int(p*(n-1)) index selection, which biased every percentile low — with
// two samples its p50 was simply the smaller one.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		p = 0
	}
	if p >= 1 {
		return time.Duration(h.max)
	}
	pos := p * float64(h.count-1)
	lower := int64(pos)
	frac := pos - float64(lower)
	lo := h.valueAtRank(uint64(lower))
	if frac == 0 {
		return time.Duration(lo)
	}
	hi := h.valueAtRank(uint64(lower) + 1)
	return time.Duration(lo + int64(frac*float64(hi-lo)))
}

// valueAtRank estimates the value of the r-th (0-based) observation in
// sorted order, interpolating uniformly within its bucket and clamping to
// the exact maximum.
func (h *Histogram) valueAtRank(r uint64) int64 {
	if r >= h.count {
		return h.max
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if r < cum+c {
			lo, width := bucketBounds(i)
			// Place the bucket's c observations at the midpoints of c
			// equal slices of the bucket.
			v := lo + int64((float64(r-cum)+0.5)/float64(c)*float64(width))
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}
