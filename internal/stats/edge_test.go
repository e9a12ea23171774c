package stats

import "testing"

// Edge-case coverage for Percentile: p=0, p=1, out-of-range p, all
// samples in the overflow bucket, and a single sample.

func TestPercentileP0AndP1(t *testing.T) {
	h := NewLog2Histogram(4) // bounds 2,4,8,16
	for _, v := range []uint64{1, 3, 5, 9, 17} {
		h.Observe(v)
	}
	// p=0 still needs ceil(0*n)=0 samples: the first bucket's bound.
	if got := h.Percentile(0); got != 2 {
		t.Fatalf("p=0: got %d, want 2 (first bucket bound)", got)
	}
	// p=1 needs all samples; the last sample sits in overflow, so the
	// answer is the observed max.
	if got := h.Percentile(1); got != 17 {
		t.Fatalf("p=1: got %d, want max 17", got)
	}
	// Out-of-range p clamps.
	if got := h.Percentile(-0.5); got != h.Percentile(0) {
		t.Fatalf("p<0 should clamp to p=0: got %d", got)
	}
	if got := h.Percentile(1.5); got != h.Percentile(1) {
		t.Fatalf("p>1 should clamp to p=1: got %d", got)
	}
}

func TestPercentileAllOverflow(t *testing.T) {
	h := NewLog2Histogram(3) // bounds 2,4,8
	for _, v := range []uint64{100, 200, 300} {
		h.Observe(v)
	}
	// Every sample is beyond the last bound: all percentiles report the
	// observed max, never a bucket bound.
	for _, p := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Percentile(p); got != 300 {
			t.Fatalf("p=%v all-overflow: got %d, want 300", p, got)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	h := NewLog2Histogram(8)
	h.Observe(5) // bucket ≤8
	// p=0 needs 0 samples, which the (empty) first bucket satisfies: it
	// reports the first bucket bound. Any p>0 needs the one sample.
	if got := h.Percentile(0); got != 2 {
		t.Fatalf("p=0 single-sample: got %d, want first bucket bound 2", got)
	}
	for _, p := range []float64{0.5, 0.99, 1} {
		if got := h.Percentile(p); got != 8 {
			t.Fatalf("p=%v single-sample: got %d, want bucket bound 8", p, got)
		}
	}
	if h.Mean() != 5 || h.Max() != 5 || h.Count() != 1 {
		t.Fatalf("single-sample scalars wrong: mean %v max %d n %d", h.Mean(), h.Max(), h.Count())
	}
}

func TestPercentileEmpty(t *testing.T) {
	h := NewLog2Histogram(8)
	for _, p := range []float64{0, 0.5, 1} {
		if got := h.Percentile(p); got != 0 {
			t.Fatalf("empty histogram p=%v: got %d, want 0", p, got)
		}
	}
}

func TestHistogramCloneMerge(t *testing.T) {
	a := NewLog2Histogram(6)
	b := NewLog2Histogram(6)
	for _, v := range []uint64{1, 5, 9} {
		a.Observe(v)
	}
	for _, v := range []uint64{2, 100} {
		b.Observe(v)
	}
	c := a.Clone()
	if err := c.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if c.Count() != 5 || c.Max() != 100 {
		t.Fatalf("merged n=%d max=%d", c.Count(), c.Max())
	}
	// The clone is independent: a is untouched.
	if a.Count() != 3 || a.Max() != 9 {
		t.Fatalf("source mutated by clone+merge: n=%d max=%d", a.Count(), a.Max())
	}
	// Shape mismatch is rejected.
	if err := c.Merge(NewLog2Histogram(4)); err == nil {
		t.Fatal("merge accepted mismatched shapes")
	}
	if err := c.Merge(NewHistogram([]uint64{7, 14, 21, 28, 35, 42})); err == nil {
		t.Fatal("merge accepted mismatched bounds")
	}
}
