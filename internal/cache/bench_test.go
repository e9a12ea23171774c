package cache

import (
	"testing"

	"udpsim/internal/isa"
)

var (
	benchHit  bool
	benchMSHR *MSHR
)

// BenchmarkCacheAccess measures one demand probe of an L1D-shaped cache
// (48 KiB, 12 ways, LRU), filling the line on a miss. Probes draw lines
// uniformly at random from a working set: "fits" uses 512 lines, so
// nearly every probe hits; "mixed" uses 1.5x the 768-line capacity, so
// about a third of the probes miss and evict.
func BenchmarkCacheAccess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lines int
	}{{"fits", 512}, {"mixed", 1152}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(Config{Name: "L1D", SizeBytes: 48 * 1024, Ways: 12, Policy: LRU, HitLatency: 4})
			addrs := make([]isa.Addr, 4096)
			x := uint64(0x9e3779b97f4a7c15)
			for i := range addrs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				addrs[i] = ln(int(x % uint64(bc.lines)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i%len(addrs)]
				r := c.Access(a, uint64(i))
				if !r.Hit {
					c.Insert(a, uint64(i), false)
				}
				benchHit = r.Hit
			}
			b.StopTimer()
			b.ReportMetric(c.Stats.HitRate(), "hit-ratio")
		})
	}
}

// BenchmarkMSHRLookup measures one lookup in a full 16-entry MSHR file
// (the L1D default): "hit" finds an in-flight line, "miss" scans every
// entry without a match.
func BenchmarkMSHRLookup(b *testing.B) {
	const n = 16
	f := NewMSHRFile(n)
	for i := 0; i < n; i++ {
		f.Allocate(ln(i), 0, 100, false, false)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchMSHR = f.Lookup(ln(i % n))
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchMSHR = f.Lookup(ln(n + i%n))
		}
	})
}
