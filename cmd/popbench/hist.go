package main

import "math/bits"

// Latency histograms are log-linear: values below 256 ns get one bucket
// each, and every power of two above that is split into 128 equal
// buckets, so a bucket is never wider than 1/128 (0.78%) of its lower
// bound. A percentile read from a bucket midpoint is therefore within
// 0.4% of the exact sample, well inside the 1% the benchmark promises.
// Each client records into its own histograms and they are merged after
// the phase, so the hot loop takes no lock.

const (
	subBits    = 7
	subBuckets = 1 << subBits
	// maxExp is the largest power of two with its own buckets: 2^41 ns
	// (~37 min) is far beyond any operation; larger values are clamped.
	maxExp     = 40
	numBuckets = (maxExp - subBits + 2) * subBuckets
)

// hist is a log-linear histogram of non-negative nanosecond values.
type hist struct {
	counts   []uint64
	n        uint64
	min, max int64
}

func newHist() *hist { return &hist{counts: make([]uint64, numBuckets)} }

// bucketOf returns the bucket index of v.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if lim := uint64(1)<<(maxExp+1) - 1; u > lim {
		u = lim
	}
	if u < 2*subBuckets {
		return int(u)
	}
	shift := bits.Len64(u) - 1 - subBits
	return shift*subBuckets + int(u>>uint(shift))
}

// bucketRange returns the lowest value bucket i holds and its width.
func bucketRange(i int) (lower, width int64) {
	if i < 2*subBuckets {
		return int64(i), 1
	}
	shift := i/subBuckets - 1
	m := int64(i - shift*subBuckets)
	return m << uint(shift), 1 << uint(shift)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// rank is the 1-based rank of the p-th percentile (p in basis points)
// of n samples: the smallest sample with at least p/10000 of the
// samples at or below it. Integer arithmetic keeps the rule exact.
func rank(n uint64, p int) uint64 {
	r := (n*uint64(p) + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// supports reports whether the p-th percentile (basis points) has at
// least ten samples beyond it — the highest percentile a sample of n
// can honestly report.
func (h *hist) supports(p int) bool {
	return h.n > 0 && h.n-rank(h.n, p) >= 10
}

// quantile returns the p-th percentile (basis points) in nanoseconds:
// the midpoint of the bucket holding the sample of that rank, clamped to
// the observed range. It returns 0 for an empty histogram.
func (h *hist) quantile(p int) float64 {
	if h.n == 0 {
		return 0
	}
	want := rank(h.n, p)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum < want {
			continue
		}
		lower, width := bucketRange(i)
		mid := float64(lower) + float64(width-1)/2
		return min(max(mid, float64(h.min)), float64(h.max))
	}
	return float64(h.max)
}
