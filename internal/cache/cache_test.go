package cache

import (
	"errors"
	"testing"
	"testing/quick"

	"udpsim/internal/isa"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 4 * 1024, Ways: 4, HitLatency: 3})
}

func ln(i int) isa.Addr { return isa.Addr(i * isa.LineBytes) }

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", SizeBytes: 32 * 1024, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 8},
		{Name: "negways", SizeBytes: 1024, Ways: 0},
		{Name: "indivisible", SizeBytes: 1000, Ways: 3},
		{Name: "nonpow2sets", SizeBytes: 3 * 64 * 4, Ways: 4}, // 3 sets
		{Name: "nonpow2line", SizeBytes: 96 * 64, Ways: 4, LineBytes: 96},
		{Name: "negline", SizeBytes: 1024, Ways: 4, LineBytes: -64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted", c.Name)
		}
	}
	// Shift indexing needs a power-of-two line size: the rejection names
	// the field rather than rounding the size.
	var ce *ConfigError
	err := Config{Name: "l", SizeBytes: 96 * 64, Ways: 4, LineBytes: 96}.Validate()
	if !errors.As(err, &ce) || ce.Field != "LineBytes" || ce.Cache != "l" {
		t.Errorf("non-power-of-two line size: got %v, want a *ConfigError on LineBytes", err)
	}
	if good.Sets() != 32*1024/(8*64) {
		t.Errorf("Sets() = %d", good.Sets())
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 1000, Ways: 3})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if r := c.Access(ln(1), 1); r.Hit {
		t.Fatal("cold access hit")
	}
	c.Insert(ln(1), 2, false)
	if r := c.Access(ln(1), 3); !r.Hit || r.WasPrefetched {
		t.Fatalf("expected plain hit, got %+v", r)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

// prefetchBit reports whether lineAddr is present with its prefetch bit
// still set.
func prefetchBit(c *Cache, lineAddr isa.Addr) bool {
	at, _, _ := c.find(lineAddr)
	return at >= 0 && c.lines[at].prefetch
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := small()
	c.InsertPath(ln(1), 1, true, true)
	if !prefetchBit(c, ln(1)) {
		t.Fatal("prefetch bit not set")
	}
	r := c.Access(ln(1), 2)
	if !r.Hit || !r.WasPrefetched || !r.WasOffPathPrefetch {
		t.Fatalf("first demand hit should report prefetch provenance: %+v", r)
	}
	// Second access: bit cleared.
	r = c.Access(ln(1), 3)
	if !r.Hit || r.WasPrefetched || r.WasOffPathPrefetch {
		t.Fatalf("second hit still reports prefetch: %+v", r)
	}
	if prefetchBit(c, ln(1)) {
		t.Error("prefetch bit survived demand hit")
	}
	if c.Stats.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d", c.Stats.PrefetchHits)
	}
}

func TestUselessPrefetchEviction(t *testing.T) {
	c := New(Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2}) // 1 set, 2 ways
	c.InsertPath(ln(0), 1, true, true)
	c.Insert(ln(1), 2, false)
	// Third insert evicts the LRU (line 0, an unused off-path prefetch).
	ev := c.Insert(ln(2), 3, false)
	if !ev.Valid || !ev.WasUnusedPrefetch || !ev.WasOffPath {
		t.Fatalf("eviction = %+v", ev)
	}
	if ev.LineAddr != ln(0) {
		t.Errorf("evicted %v, want %v", ev.LineAddr, ln(0))
	}
	if c.Stats.UselessPrefetchEvictions != 1 {
		t.Errorf("UselessPrefetchEvictions = %d", c.Stats.UselessPrefetchEvictions)
	}
}

func TestUsedPrefetchNotUseless(t *testing.T) {
	c := New(Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2})
	c.Insert(ln(0), 1, true)
	c.Access(ln(0), 2) // consume: clears prefetch bit
	c.Insert(ln(1), 3, false)
	ev := c.Insert(ln(2), 4, false)
	// LRU victim is line 1 (line 0 was touched at cycle 2... stamps:
	// line0 stamp 2, line1 stamp 3 → victim = line0). Either way the
	// eviction must not be flagged useless.
	if ev.WasUnusedPrefetch {
		t.Errorf("consumed prefetch flagged useless: %+v", ev)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(Config{Name: "lru", SizeBytes: 4 * 64, Ways: 4}) // 1 set
	for i := 0; i < 4; i++ {
		c.Insert(ln(i), uint64(i+1), false)
	}
	c.Access(ln(0), 10) // make line 0 MRU
	ev := c.Insert(ln(9), 11, false)
	if ev.LineAddr != ln(1) {
		t.Errorf("evicted %v, want LRU line 1", ev.LineAddr)
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := small()
	c.Insert(ln(1), 1, false)
	ev := c.Insert(ln(1), 2, true)
	if ev.Valid {
		t.Errorf("re-insert evicted %+v", ev)
	}
	// Re-insert must not set the prefetch bit on an already-demanded
	// line.
	if prefetchBit(c, ln(1)) {
		t.Error("re-insert flipped prefetch bit")
	}
}

func TestRandomPolicyEvictsSomething(t *testing.T) {
	c := New(Config{Name: "rnd", SizeBytes: 4 * 64, Ways: 4, Policy: Random})
	for i := 0; i < 4; i++ {
		c.Insert(ln(i), uint64(i), false)
	}
	ev := c.Insert(ln(10), 5, false)
	if !ev.Valid {
		t.Error("full set insert did not evict")
	}
	if c.Occupancy() != 4 {
		t.Errorf("occupancy %d", c.Occupancy())
	}
}

func TestEvictionAddressReconstruction(t *testing.T) {
	c := New(Config{Name: "rec", SizeBytes: 2 * 1024, Ways: 2})
	// Two lines mapping to the same set: differ by sets*linebytes.
	sets := c.Config().Sets()
	a := ln(5)
	b := a + isa.Addr(sets*isa.LineBytes)
	cc := b + isa.Addr(sets*isa.LineBytes)
	c.Insert(a, 1, false)
	c.Insert(b, 2, false)
	ev := c.Insert(cc, 3, false)
	if ev.LineAddr != a {
		t.Errorf("reconstructed %v, want %v", ev.LineAddr, a)
	}
}

// Property: occupancy never exceeds capacity and lookup sees exactly
// the most recent Capacity-or-fewer distinct inserted lines when no
// conflicts... (weaker: occupancy bound + all recent same-set hits).
func TestOccupancyBound(t *testing.T) {
	f := func(lines []uint8) bool {
		c := New(Config{Name: "p", SizeBytes: 1024, Ways: 2})
		for i, l := range lines {
			c.Insert(ln(int(l)), uint64(i), false)
		}
		return c.Occupancy() <= c.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Hits: 90, Misses: 10}
	if s.HitRate() != 0.9 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	if s.MPKI(1000) != 10 {
		t.Errorf("MPKI = %v", s.MPKI(1000))
	}
	var zero Stats
	if zero.HitRate() != 0 || zero.MPKI(0) != 0 {
		t.Error("zero stats should not divide by zero")
	}
}

func TestCacheVersion(t *testing.T) {
	c := small()
	v := c.Version()
	changed := func(op string) {
		t.Helper()
		if c.Version() == v {
			t.Errorf("%s did not change the version", op)
		}
		v = c.Version()
	}
	unchanged := func(op string) {
		t.Helper()
		if c.Version() != v {
			t.Errorf("%s changed the version", op)
		}
	}
	c.Insert(ln(1), 1, true)
	changed("Insert")
	c.Access(ln(1), 2)
	c.Access(ln(2), 3)
	c.Lookup(ln(1))
	c.Insert(ln(1), 4, false) // already present: a refresh
	unchanged("hit, miss, lookup and refresh")
	c.Insert(ln(3), 5, false)
	changed("Insert")
}
