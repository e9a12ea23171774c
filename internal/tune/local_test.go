package tune

import (
	"context"
	"strings"
	"sync"
	"testing"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/sim"
)

// mapStore is a ResultStore over a mutex'd map — the acquisition cache
// for the warm-store property test.
type mapStore struct {
	mu sync.Mutex
	m  map[string]sim.Result
}

func newMapStore() *mapStore { return &mapStore{m: map[string]sim.Result{}} }

func (s *mapStore) Load(key string) (sim.Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok, nil
}

func (s *mapStore) Save(key string, r sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = r
	return nil
}

// warmSpaceJSON keeps real simulations tiny: a 6-cell space probed at
// ~10k-instruction regions.
const warmSpaceJSON = `{
  "name": "warm",
  "workloads": ["mysql"],
  "seed": 5,
  "instructions": 12000,
  "warmup": 4000,
  "search": {"samples": 4, "eta": 2, "rungs": 2, "refine": 4},
  "dimensions": [
    {"name": "mech", "field": "mechanism", "choices": ["baseline", "udp"]},
    {"name": "l2m", "field": "l2_mshrs", "values": [8, 16, 32]}
  ]
}`

// TestWarmStoreRunSimulatesNothing is the acquisition-cache property
// end to end with real simulations: a second identical tune run over a
// warm result store performs zero new simulations — every probe is
// answered from the store, observable as an unchanged
// udpsim_cache_misses counter.
func TestWarmStoreRunSimulatesNothing(t *testing.T) {
	sp := mustSpace(t, warmSpaceJSON)
	st := newMapStore()
	run := func() (*Result, int64) {
		// Flush the in-process result cache so the store is the only
		// warm layer — the daemon-restart scenario.
		experiments.FlushResultCache()
		drv := New(sp, &LocalProber{Space: sp, Store: st})
		before := obs.CacheMisses.Value()
		res, err := drv.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, int64(obs.CacheMisses.Value() - before)
	}

	res1, misses1 := run()
	if misses1 == 0 {
		t.Fatalf("cold run performed no simulations — the test measures nothing")
	}
	if res1.Stats.CacheHits != 0 {
		t.Fatalf("cold run against an empty store reported %d cache hits", res1.Stats.CacheHits)
	}

	res2, misses2 := run()
	if misses2 != 0 {
		t.Fatalf("warm run simulated %d cells, want 0 (store must answer every probe)", misses2)
	}
	if res2.Stats.CacheHits != res2.Stats.Probes {
		t.Fatalf("warm run: %d/%d probes were cache hits, want all",
			res2.Stats.CacheHits, res2.Stats.Probes)
	}
	if res1.Best.Label != res2.Best.Label || res1.Best.Score != res2.Best.Score {
		t.Fatalf("warm run found a different best: %+v vs %+v", res1.Best, res2.Best)
	}
}

// TestProbeStoreFirst checks the shared probe sequence without
// simulating: specs whose cells are all in the store come back Cached,
// only the rest reach run (as one sub-descriptor), counted sees the
// probe and hit counts once, and a run that drops a label fails.
func TestProbeStoreFirst(t *testing.T) {
	sp := mustSpace(t, warmSpaceJSON)
	fid := Fidelity{Instructions: 12_000, Warmup: 4_000, Simpoints: 1}
	specs := []experiments.ConfigSpec{
		{Label: "a", Mechanism: "baseline"},
		{Label: "b", Mechanism: "udp"},
		{Label: "c", Mechanism: "baseline", L2MSHRs: 8},
	}
	st := newMapStore()
	d, err := sp.ProbeDescriptor(specs, fid)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		st.m[experiments.CellKey(d, w, specs[1])] = sim.Result{IPC: 1.5}
	}
	fake := func(sub *experiments.Descriptor) ([]experiments.DescriptorResult, error) {
		var out []experiments.DescriptorResult
		for _, w := range sub.Workloads {
			for _, cs := range sub.Configs {
				out = append(out, experiments.DescriptorResult{Workload: w, Label: cs.Label, Result: sim.Result{IPC: 0.5}})
			}
		}
		return out, nil
	}
	var ran []string
	var probes, hits, calls int
	outs, err := ProbeStoreFirst(st, sp, specs, fid, func(sub *experiments.Descriptor) ([]experiments.DescriptorResult, error) {
		for _, cs := range sub.Configs {
			ran = append(ran, cs.Label)
		}
		return fake(sub)
	}, func(p, h int) { probes, hits, calls = p, h, calls+1 })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ran, ",") != "a,c" {
		t.Errorf("run got labels %v, want the store misses [a c]", ran)
	}
	if calls != 1 || probes != 3 || hits != 1 {
		t.Errorf("counted %d times with (%d, %d), want once with (3, 1)", calls, probes, hits)
	}
	for i, want := range []float64{0.5, 1.5, 0.5} {
		o := outs[i]
		if len(o.Results) != len(sp.Workloads) || o.Results[0].Label != specs[i].Label ||
			o.Results[0].Result.IPC != want || o.Cached != (i == 1) {
			t.Errorf("outcome %d = %+v, want %s at IPC %v, cached %v", i, o, specs[i].Label, want, i == 1)
		}
	}

	_, err = ProbeStoreFirst(st, sp, specs, fid, func(sub *experiments.Descriptor) ([]experiments.DescriptorResult, error) {
		rs, err := fake(sub)
		return rs[:len(rs)-1], err
	}, nil)
	if err == nil || !strings.Contains(err.Error(), `no cells for label "c"`) {
		t.Errorf("a run missing label c: err = %v, want a missing-label error", err)
	}
}
