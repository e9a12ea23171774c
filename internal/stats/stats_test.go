package stats

import (
	"testing"
	"testing/quick"
)

func TestLog2HistogramBuckets(t *testing.T) {
	h := NewLog2Histogram(4) // bounds 2,4,8,16
	for _, v := range []uint64{1, 2, 3, 4, 9, 17, 1000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Errorf("max %d", h.Max())
	}
	// 1,2 → ≤2; 3,4 → ≤4; 9 → ≤16; 17,1000 → overflow
	seen := h.Counts()
	want := []uint64{2, 2, 0, 1, 2}
	if len(seen) != len(want) {
		t.Fatalf("buckets %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("buckets %v, want %v", seen, want)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram([]uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Percentile(0.5); got != 50 {
		t.Errorf("p50 ≤ %d, want 50", got)
	}
	if got := h.Percentile(1.0); got != 100 {
		t.Errorf("p100 = %d", got)
	}
	if got := h.Percentile(0); got != 10 {
		t.Errorf("p0 = %d", got)
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean %v", h.Mean())
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	h := NewLog2Histogram(8)
	if h.Percentile(0.5) != 0 || h.Mean() != 0 || h.String() != "(empty)" {
		t.Error("empty histogram misbehaves")
	}
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("reset incomplete")
	}
}

// Property: percentiles are monotone in p and total counts match
// observations.
func TestHistogramProperties(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewLog2Histogram(16)
		for _, v := range vals {
			h.Observe(uint64(v))
		}
		if h.Count() != uint64(len(vals)) {
			return false
		}
		prev := uint64(0)
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			q := h.Percentile(p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPanics(t *testing.T) {
	cases := []func(){
		func() { NewLog2Histogram(0) },
		func() { NewLog2Histogram(64) },
		func() { NewHistogram([]uint64{4, 2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}
