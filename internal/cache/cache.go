// Package cache models set-associative caches with the features the
// paper's analysis depends on: per-line prefetch bits (to classify
// useful vs. useless prefetches, Section III-E), miss status holding
// registers and a fill buffer (to classify timely vs. untimely
// prefetches, Section III-C), and pluggable replacement.
package cache

import (
	"fmt"
	"math/bits"

	"udpsim/internal/isa"
)

// ReplacementPolicy selects the victim way within a set.
type ReplacementPolicy uint8

// Replacement policies.
const (
	LRU ReplacementPolicy = iota
	FIFO
	Random
)

// line is one cache line's metadata apart from its tag, which lives in
// the cache's packed tag array. The simulator tracks no data bytes:
// only presence and provenance matter for timing.
type line struct {
	prefetch bool // set when installed by a prefetch, cleared on demand hit
	// offPath records that the installing prefetch was emitted on the
	// wrong path (UDP learns from demand hits on such lines).
	offPath bool
	stamp   uint64 // LRU: last-use cycle; FIFO: insert cycle
}

// invalidTag marks an empty way in the tag array. A tag is an address
// shifted right by log2(LineBytes)+log2(sets) bits, so with lines of
// two or more bytes no real tag reaches it.
const invalidTag = ^uint64(0)

// Config describes a cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	Policy     ReplacementPolicy
	HitLatency int // cycles
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.LineBytes == 0 {
		c.LineBytes = isa.LineBytes
	}
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// ConfigError is the structured geometry failure Validate returns:
// which cache, which Config field, and why.
type ConfigError struct {
	Cache  string
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("cache %s: %s: %s", e.Cache, e.Field, e.Reason)
}

// Validate reports configuration errors as a *ConfigError. Indexing is
// by shifts, so the line size and the set count must be powers of two.
func (c Config) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &ConfigError{Cache: c.Name, Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if c.SizeBytes <= 0 {
		return bad("SizeBytes", "size %d must be positive", c.SizeBytes)
	}
	if c.Ways <= 0 {
		return bad("Ways", "ways %d must be positive", c.Ways)
	}
	lb := c.LineBytes
	if lb == 0 {
		lb = isa.LineBytes
	}
	if lb < 0 || lb&(lb-1) != 0 {
		return bad("LineBytes", "line size %d is not a power of two", lb)
	}
	if c.SizeBytes%(c.Ways*lb) != 0 {
		return bad("SizeBytes", "size %d not divisible by ways*linesize %d", c.SizeBytes, c.Ways*lb)
	}
	sets := c.SizeBytes / (c.Ways * lb)
	if sets&(sets-1) != 0 {
		return bad("SizeBytes", "set count %d is not a power of two", sets)
	}
	return nil
}

// Stats accumulates cache events.
type Stats struct {
	Hits            uint64
	Misses          uint64
	PrefetchHits    uint64 // demand hits on lines installed by prefetch
	Inserts         uint64
	PrefetchInserts uint64
	Evictions       uint64
	// UselessPrefetchEvictions counts lines evicted with the prefetch
	// bit still set: they were brought in by a prefetch and never
	// touched by a demand access — the paper's "useless prefetch".
	UselessPrefetchEvictions uint64
}

// MPKI returns misses per kilo-event given an instruction count.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instructions) * 1000
}

// HitRate returns hits/(hits+misses).
func (s *Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative cache over line addresses. The tags of a
// set are packed contiguously (way w of set s at s*ways+w), so a probe
// scans ways*8 bytes; the per-line metadata sits in a parallel array
// touched only on a hit, a fill or an eviction.
type Cache struct {
	cfg     Config
	tags    []uint64 // invalidTag marks an empty way
	lines   []line
	setMask uint64
	// lineShift and setShift split a line address into set and tag:
	// log2(LineBytes) and log2(sets), fixed at construction.
	lineShift uint
	setShift  uint
	// version changes whenever a line is installed or removed, so a
	// caller can tell that a miss it observed would miss again.
	version  uint64
	rngState uint64
	Stats    Stats
}

// New builds a cache from cfg, panicking on invalid geometry (a
// programming error: geometries come from static configuration).
func New(cfg Config) *Cache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = isa.LineBytes
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	tags := make([]uint64, nsets*cfg.Ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	return &Cache{
		cfg:       cfg,
		tags:      tags,
		lines:     make([]line, nsets*cfg.Ways),
		setMask:   uint64(nsets - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(nsets))),
		rngState:  0x853c49e6748fea9b,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Version returns a counter that changes whenever a line is installed,
// invalidated or flushed. Equal versions mean the set of present lines
// is unchanged (replacement stamps and prefetch bits may still move).
func (c *Cache) Version() uint64 { return c.version }

// index splits lineAddr into its set and tag.
func (c *Cache) index(lineAddr isa.Addr) (set uint64, tag uint64) {
	n := uint64(lineAddr) >> c.lineShift
	return n & c.setMask, n >> c.setShift
}

// find returns the index into tags/lines of lineAddr's way, or -1, plus
// the set and tag it computed.
func (c *Cache) find(lineAddr isa.Addr) (at int, set, tag uint64) {
	set, tag = c.index(lineAddr)
	base := int(set) * c.cfg.Ways
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			return base + i, set, tag
		}
	}
	return -1, set, tag
}

// Lookup probes the cache without updating replacement state or stats.
func (c *Cache) Lookup(lineAddr isa.Addr) bool {
	at, _, _ := c.find(lineAddr)
	return at >= 0
}

// AccessResult describes the outcome of a demand access.
type AccessResult struct {
	Hit bool
	// WasPrefetched is set when the access hit a line whose prefetch bit
	// was still set, i.e. this demand access is the first use of a
	// prefetched line (a "useful prefetch" event).
	WasPrefetched bool
	// WasOffPathPrefetch further qualifies WasPrefetched: the prefetch
	// had been emitted on the wrong path (a *useful off-path prefetch*,
	// the event UDP's useful-set learns from).
	WasOffPathPrefetch bool
}

// Access performs a demand access at the given cycle: on hit it updates
// replacement state and clears the prefetch bit.
func (c *Cache) Access(lineAddr isa.Addr, cycle uint64) AccessResult {
	at, _, _ := c.find(lineAddr)
	if at < 0 {
		c.Stats.Misses++
		return AccessResult{}
	}
	ln := &c.lines[at]
	c.Stats.Hits++
	res := AccessResult{Hit: true, WasPrefetched: ln.prefetch, WasOffPathPrefetch: ln.prefetch && ln.offPath}
	if ln.prefetch {
		c.Stats.PrefetchHits++
		ln.prefetch = false
		ln.offPath = false
	}
	if c.cfg.Policy == LRU {
		ln.stamp = cycle
	}
	return res
}

// Eviction describes a line displaced by Insert.
type Eviction struct {
	LineAddr isa.Addr
	Valid    bool
	// WasUnusedPrefetch is set when the victim still had its prefetch
	// bit set: the prefetch was useless.
	WasUnusedPrefetch bool
	// WasOffPath qualifies WasUnusedPrefetch with the prefetch's path.
	WasOffPath bool
}

// Insert fills lineAddr, selecting a victim by the configured policy.
// isPrefetch marks the line's prefetch bit.
func (c *Cache) Insert(lineAddr isa.Addr, cycle uint64, isPrefetch bool) Eviction {
	return c.InsertPath(lineAddr, cycle, isPrefetch, false)
}

// InsertPath is Insert with explicit wrong-path provenance for
// prefetched lines.
func (c *Cache) InsertPath(lineAddr isa.Addr, cycle uint64, isPrefetch, offPath bool) Eviction {
	at, set, tag := c.find(lineAddr)
	if at >= 0 {
		// Already present (e.g. racing fill): refresh, preserving a
		// clear prefetch bit if the line was already demanded.
		if c.cfg.Policy == LRU {
			c.lines[at].stamp = cycle
		}
		return Eviction{}
	}
	base := int(set) * c.cfg.Ways
	victim := -1
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == invalidTag {
			victim = base + i
			break
		}
	}
	var ev Eviction
	if victim < 0 {
		victim = base + c.pickVictim(c.lines[base:base+c.cfg.Ways])
		v := &c.lines[victim]
		ev = Eviction{
			LineAddr:          c.reconstruct(set, c.tags[victim]),
			Valid:             true,
			WasUnusedPrefetch: v.prefetch,
			WasOffPath:        v.prefetch && v.offPath,
		}
		c.Stats.Evictions++
		if v.prefetch {
			c.Stats.UselessPrefetchEvictions++
		}
	}
	c.tags[victim] = tag
	c.lines[victim] = line{prefetch: isPrefetch, offPath: isPrefetch && offPath, stamp: cycle}
	c.version++
	c.Stats.Inserts++
	if isPrefetch {
		c.Stats.PrefetchInserts++
	}
	return ev
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}

// Capacity returns the total number of lines.
func (c *Cache) Capacity() int { return len(c.tags) }

// pickVictim chooses the way to evict from a full set's metadata.
func (c *Cache) pickVictim(ways []line) int {
	switch c.cfg.Policy {
	case Random:
		c.rngState = c.rngState*6364136223846793005 + 1442695040888963407
		return int((c.rngState >> 33) % uint64(len(ways)))
	default: // LRU and FIFO both evict the smallest stamp
		victim := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].stamp < ways[victim].stamp {
				victim = i
			}
		}
		return victim
	}
}

func (c *Cache) reconstruct(set, tag uint64) isa.Addr {
	return isa.Addr((tag<<c.setShift | set) << c.lineShift)
}
