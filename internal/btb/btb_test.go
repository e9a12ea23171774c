package btb

import (
	"testing"

	"udpsim/internal/isa"
)

func TestInsertLookup(t *testing.T) {
	// 16 sets, 1 set (no index bits) and the default 1024 sets.
	for _, cfg := range []Config{{Entries: 64, Ways: 4}, {Entries: 4, Ways: 4}, {Entries: 8192, Ways: 8}} {
		b := New(cfg)
		sets := cfg.Entries / cfg.Ways
		pc := isa.Addr(0x400000) // even tag at every geometry
		b.Insert(pc, isa.BranchCond, 0x402000, 1)
		e, hit := b.Lookup(pc, 2)
		if !hit {
			t.Fatalf("%d sets: miss after insert", sets)
		}
		if e.Kind != isa.BranchCond || e.Target != 0x402000 {
			t.Errorf("%d sets: entry %+v", sets, e)
		}
		if _, hit := b.Lookup(0x409999<<2, 3); hit {
			t.Errorf("%d sets: phantom hit", sets)
		}
		// Same set, tag one higher: the lowest tag bit must not be
		// shifted away with the index bits.
		if _, hit := b.Lookup(pc+isa.Addr(sets*4), 4); hit {
			t.Errorf("%d sets: neighbouring tag aliased", sets)
		}
		if b.Stats.Hits != 1 || b.Stats.Misses != 2 || b.Stats.Inserts != 1 {
			t.Errorf("%d sets: stats %+v", sets, b.Stats)
		}
	}
}

func TestUpdateExisting(t *testing.T) {
	b := New(Config{Entries: 64, Ways: 4})
	pc := isa.Addr(0x401000)
	b.Insert(pc, isa.BranchIndirect, 0x402000, 1)
	b.Insert(pc, isa.BranchIndirect, 0x403000, 2)
	e, _ := b.Lookup(pc, 3)
	if e.Target != 0x403000 {
		t.Errorf("target not updated: %v", e.Target)
	}
	if b.Stats.Inserts != 1 {
		t.Errorf("update counted as insert: %d", b.Stats.Inserts)
	}
}

func TestLRUEviction(t *testing.T) {
	b := New(Config{Entries: 2, Ways: 2}) // one set
	// Addresses mapping to set 0: instruction-granular index, so step
	// by sets*4 bytes = 4.
	a1, a2, a3 := isa.Addr(0x400000), isa.Addr(0x400004), isa.Addr(0x400008)
	b.Insert(a1, isa.BranchCond, 1, 1)
	b.Insert(a2, isa.BranchCond, 2, 2)
	b.Lookup(a1, 3) // refresh a1
	b.Insert(a3, isa.BranchCond, 3, 4)
	if _, hit := b.Lookup(a1, 5); !hit {
		t.Error("MRU entry evicted")
	}
	if _, hit := b.Lookup(a2, 6); hit {
		t.Error("LRU entry survived")
	}
	if b.Stats.Evicts != 1 {
		t.Errorf("Evicts = %d", b.Stats.Evicts)
	}
}

func TestCapacityPressure(t *testing.T) {
	b := New(Config{Entries: 64, Ways: 4})
	// Insert far more branches than capacity; hit rate on re-lookup of
	// the full set must be bounded by capacity.
	n := 512
	for i := 0; i < n; i++ {
		b.Insert(isa.Addr(0x400000+i*4), isa.BranchCond, isa.Addr(i), uint64(i))
	}
	live := 0
	for i := 0; i < n; i++ {
		if b.Probe(isa.Addr(0x400000 + i*4)) {
			live++
		}
	}
	if live > b.Entries() {
		t.Errorf("%d live entries exceed capacity %d", live, b.Entries())
	}
	if live < b.Entries()/2 {
		t.Errorf("only %d live entries; capacity %d badly utilized", live, b.Entries())
	}
}

func TestPartialTagsAlias(t *testing.T) {
	// With tiny partial tags, distant branches must alias (Fagin-style
	// storage/accuracy tradeoff made visible).
	b := New(Config{Entries: 16, Ways: 1, TagBits: 2})
	b.Insert(0x400000, isa.BranchCond, 0xAAA, 1)
	found := false
	for i := 1; i < 64 && !found; i++ {
		// Same set requires stride of sets*4 = 64 bytes.
		pc := isa.Addr(0x400000 + i*16*4*4)
		if _, hit := b.Lookup(pc, uint64(i)); hit {
			found = true
		}
	}
	if !found {
		t.Error("no aliasing observed with 2-bit partial tags")
	}
}

func TestConfigPanics(t *testing.T) {
	bad := []Config{
		{Entries: 0, Ways: 4},
		{Entries: 63, Ways: 4},
		{Entries: 24, Ways: 4}, // 6 sets: not a power of two
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHitRate(t *testing.T) {
	s := Stats{Lookups: 10, Hits: 7}
	if s.HitRate() != 0.7 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	var zero Stats
	if zero.HitRate() != 0 {
		t.Error("zero divide")
	}
}

func TestRecordTakenMiss(t *testing.T) {
	b := New(Config{Entries: 8, Ways: 2})
	b.RecordTakenMiss()
	if b.Stats.MissesTaken != 1 {
		t.Errorf("MissesTaken = %d", b.Stats.MissesTaken)
	}
}

func TestIndirectLearnsStableTarget(t *testing.T) {
	ib := NewIndirect(256)
	pc := isa.Addr(0x401000)
	hist := uint64(0xabc)
	if _, hit := ib.Lookup(pc, hist); hit {
		t.Fatal("cold hit")
	}
	ib.Update(pc, hist, 0x500000)
	tgt, hit := ib.Lookup(pc, hist)
	if !hit || tgt != 0x500000 {
		t.Fatalf("lookup = (%v, %v)", tgt, hit)
	}
}

func TestIndirectConfidenceHysteresis(t *testing.T) {
	ib := NewIndirect(256)
	pc := isa.Addr(0x401000)
	hist := uint64(0x1)
	for i := 0; i < 4; i++ {
		ib.Update(pc, hist, 0x500000) // confidence saturates
	}
	// One conflicting outcome must not immediately replace the target.
	ib.Update(pc, hist, 0x600000)
	tgt, _ := ib.Lookup(pc, hist)
	if tgt != 0x500000 {
		t.Errorf("single conflict replaced confident target: %v", tgt)
	}
	// Repeated conflicts eventually do.
	for i := 0; i < 8; i++ {
		ib.Update(pc, hist, 0x600000)
	}
	tgt, _ = ib.Lookup(pc, hist)
	if tgt != 0x600000 {
		t.Errorf("target never retrained: %v", tgt)
	}
}

func TestIndirectPathSensitivity(t *testing.T) {
	ib := NewIndirect(256)
	pc := isa.Addr(0x401000)
	ib.Update(pc, 0x111, 0x500000)
	ib.Update(pc, 0x999, 0x600000)
	t1, h1 := ib.Lookup(pc, 0x111)
	t2, h2 := ib.Lookup(pc, 0x999)
	if !h1 || !h2 || t1 != 0x500000 || t2 != 0x600000 {
		t.Errorf("path-sensitive targets: (%v,%v) (%v,%v)", t1, h1, t2, h2)
	}
}

func TestIndirectPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, 3, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d accepted", n)
				}
			}()
			NewIndirect(n)
		}()
	}
}
