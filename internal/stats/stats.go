// Package stats provides the fixed-bucket histograms the simulator's
// observability is built from: power-of-two latency histograms and
// histograms over explicit bucket bounds.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bucket histogram of uint64 samples. Buckets are
// defined by their inclusive upper bounds; samples beyond the last
// bound land in the overflow bucket.
type Histogram struct {
	bounds []uint64
	counts []uint64
	total  uint64
	sum    uint64
	max    uint64
}

// NewLog2Histogram builds a histogram with power-of-two bucket bounds
// 1, 2, 4, ... 2^maxPow — the natural shape for latencies.
func NewLog2Histogram(maxPow uint) *Histogram {
	if maxPow == 0 || maxPow > 63 {
		panic("stats: log2 histogram needs 1..63 buckets")
	}
	bounds := make([]uint64, maxPow)
	for i := range bounds {
		bounds[i] = 1 << uint(i+1)
	}
	return NewHistogram(bounds)
}

// NewHistogram builds a histogram from explicit ascending bucket upper
// bounds.
func NewHistogram(bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must ascend")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1), // +overflow
	}
}

// Observe records one sample. Bucket lookup is a branchless binary
// search over the ascending bounds (the same invariant as
// sort.Search, with the comparison materialized as an integer so the
// CPU never mispredicts on the data-dependent direction). This beats
// both sort.Search — whose per-probe closure call costs more than the
// search saves — and the former linear scan on the wide (63-bucket)
// log2 histograms observability uses; see BenchmarkHistogramObserve
// in bench_test.go.
func (h *Histogram) Observe(v uint64) {
	base, n := 0, len(h.bounds)
	for n > 1 {
		half := n >> 1
		// step = half when bounds[base+half-1] < v, else 0 — computed
		// arithmetically to stay branch-free.
		step := half & -b2i(h.bounds[base+half-1] < v)
		base += step
		n -= half
	}
	if n == 1 && h.bounds[base] < v {
		base++ // overflow bucket
	}
	h.counts[base]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// b2i converts a bool to 0/1; the compiler lowers this to SETcc, so
// callers can fold comparisons into arithmetic without branching.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound on the p-th percentile (p in
// [0,1]): the bucket bound below which at least p of the samples fall.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(math.Ceil(p * float64(h.total)))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		if acc >= need {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max = 0, 0, 0
}

// Clone returns a deep copy (shared immutable bounds, copied counts).
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		bounds: h.bounds, // bounds are never mutated after construction
		counts: make([]uint64, len(h.counts)),
		total:  h.total,
		sum:    h.sum,
		max:    h.max,
	}
	copy(c.counts, h.counts)
	return c
}

// Merge adds other's samples into h. The two histograms must have
// identical bucket bounds; an error is returned (and h is unchanged)
// otherwise.
func (h *Histogram) Merge(other *Histogram) error {
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("stats: merge shape mismatch: %d vs %d buckets", len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("stats: merge bound mismatch at bucket %d: %d vs %d", i, h.bounds[i], other.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	return nil
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Counts returns the per-bucket sample counts, including the trailing
// overflow bucket (one more than the bounds), empty buckets included,
// which exposition formats with fixed series need.
// The returned slice aliases the histogram's counts — callers must not
// modify it and must copy if they need a stable snapshot.
func (h *Histogram) Counts() []uint64 { return h.counts }

// String renders a compact ASCII distribution.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "(empty)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50≤%d p99≤%d max=%d",
		h.total, h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.max)
	return b.String()
}
