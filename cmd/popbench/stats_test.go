package main

import (
	"math"
	"sort"
	"testing"

	"popana/internal/xrand"
)

func TestHistPercentilesWithinOnePercent(t *testing.T) {
	r := xrand.New(42)
	const n = 100000
	h := newHist()
	xs := make([]int64, n)
	for i := range xs {
		// Log-normal around 3 µs with a long tail, like the latencies.
		xs[i] = int64(math.Exp(8 + 1.5*r.NormFloat64()))
		h.record(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, p := range []int{100, 5000, 9000, 9900, 9990, 10000} {
		exact := float64(xs[rank(n, p)-1])
		got := h.quantile(p)
		if math.Abs(got-exact) > 0.01*exact {
			t.Errorf("p%.2f = %g, exact %g: off by more than 1%%", float64(p)/100, got, exact)
		}
	}
}

func TestHistMergeMatchesOneHistogram(t *testing.T) {
	r := xrand.New(7)
	all, a, b := newHist(), newHist(), newHist()
	for i := 0; i < 5000; i++ {
		v := int64(r.Intn(1 << 30))
		all.record(v)
		if i%3 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(b)
	for _, p := range []int{5000, 9900} {
		if a.quantile(p) != all.quantile(p) {
			t.Errorf("merged p%d = %g, single histogram %g", p, a.quantile(p), all.quantile(p))
		}
	}
	if a.n != all.n || a.min != all.min || a.max != all.max {
		t.Errorf("merged n/min/max %d/%d/%d, want %d/%d/%d", a.n, a.min, a.max, all.n, all.min, all.max)
	}
}

func TestBucketsAreNarrowAndContiguous(t *testing.T) {
	prevEnd := int64(0)
	for i := 0; i < numBuckets; i++ {
		lower, width := bucketRange(i)
		if lower != prevEnd {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lower, prevEnd)
		}
		if lower >= 2*subBuckets && float64(width)/float64(lower) > 1.0/subBuckets {
			t.Fatalf("bucket %d is %d wide at %d: wider than 1/%d", i, width, lower, subBuckets)
		}
		for _, v := range []int64{lower, lower + width - 1} {
			if bucketOf(v) != i {
				t.Fatalf("value %d maps to bucket %d, want %d", v, bucketOf(v), i)
			}
		}
		prevEnd = lower + width
	}
}

// The p99 of fewer than 1000 samples has fewer than ten samples beyond
// it, so it is not reported.
func TestTailRuleSuppressesUnsupportedP99(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {100, false}, {5000, true}} {
		h := newHist()
		for i := 0; i < tc.n; i++ {
			h.record(int64(1000 + i))
		}
		if got := h.supports(9900); got != tc.want {
			t.Errorf("n=%d: supports(p99) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if h := newHist(); h.supports(5000) {
		t.Error("an empty histogram supports a median")
	}
}

func TestSelfTimes(t *testing.T) {
	// A table call of 100 ns whose serving layer's replay took 30 ns,
	// another of 50 ns with two replays of 10 and 15 ns, one replay
	// that has a nested child, and a replay that ran longer than the
	// call it stands in for.
	spans := []span{
		{ID: 1, Name: "spatialdb.get", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "linearquad.get", Start: 500, End: 530},
		{ID: 3, Name: "spatialdb.count", Start: 200, End: 250},
		{ID: 4, Parent: 3, Name: "linearquad.count", Start: 600, End: 610},
		{ID: 5, Parent: 3, Name: "segment.seek", Start: 700, End: 715},
		{ID: 6, Parent: 5, Name: "wal.fold", Start: 702, End: 707},
		{ID: 7, Name: "spatialdb.select", Start: 300, End: 320},
		{ID: 8, Parent: 7, Name: "quadtree.range", Start: 800, End: 845},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"spatialdb":  {NS: (100 - 30) + (50 - 25) + (20 - 45), Spans: 3},
		"linearquad": {NS: 30 + 10, Spans: 2},
		"segment":    {NS: 15 - 5, Spans: 1},
		"wal":        {NS: 5, Spans: 1},
		"quadtree":   {NS: 45, Spans: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s self time %+v, want %+v", layer, got[layer], w)
		}
	}
	if c := childTime(spans); c[3] != 25 || c[5] != 5 || c[2] != 0 {
		t.Errorf("child time %v", c)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %g, %g, want 1.5, 12", q1, q3)
	}
}
