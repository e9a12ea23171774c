package serve

import (
	"fmt"
	"testing"

	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// BenchmarkStoreGetPut measures the result store's three paths on a
// real Result (a short mysql UDP run): "put" is Save of a new key
// (encode, write, fsync, rename), "get-disk" is Load of a key no LRU
// holds (read, checksum, decode), and "get-lru" is Load of a key the
// in-memory layer holds.
func BenchmarkStoreGetPut(b *testing.B) {
	cfg := sim.NewConfig(workload.MustByName("mysql"), sim.MechUDP)
	cfg.MaxInstructions, cfg.WarmupInstructions = 5000, 1000
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res := m.Run()
	key := func(i int) string { return fmt.Sprintf("bench|key=%d", i) }

	b.Run("put", func(b *testing.B) {
		s, err := OpenStore(b.TempDir(), 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Save(key(i), res); err != nil {
				b.Fatal(err)
			}
		}
	})

	// A few distinct records, read round-robin.
	const records = 64
	dir := b.TempDir()
	seed, err := OpenStore(dir, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := seed.Save(key(i), res); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name     string
		lruBytes int64
	}{{"get-disk", 1}, {"get-lru", 0}} {
		b.Run(c.name, func(b *testing.B) {
			// A one-byte LRU caches no record, so every Load reads disk;
			// a default one holds every record after the first pass.
			s, err := OpenStore(dir, c.lruBytes, nil)
			if err != nil {
				b.Fatal(err)
			}
			load := func(i int) {
				if _, ok, err := s.Load(key(i % records)); !ok || err != nil {
					b.Fatalf("Load(%q): ok=%v err=%v", key(i%records), ok, err)
				}
			}
			for i := 0; i < records; i++ {
				load(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				load(i)
			}
		})
	}
}
