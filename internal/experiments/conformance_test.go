package experiments

import (
	"fmt"
	"strings"
	"testing"

	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// TestRegistryConformance is the contract every row of the mechanism
// table must satisfy: it has a doc line, its name round-trips through
// descriptor JSON validation and the result-cache key, and it builds a
// machine that actually simulates (a tiny run retires the requested
// instructions with a plausible IPC). A mechanism that is listed but
// fails any of these would silently poison experiment grids, so the
// conformance suite runs the whole table.
func TestRegistryConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	docs := sim.MechanismDocs()
	if len(docs) == 0 {
		t.Fatal("empty mechanism table")
	}

	prof := workload.MustByName("mysql")
	prof.Funcs = 60
	prof.DispatchTargets = 40

	seenKeys := map[string]sim.Mechanism{}
	for _, d := range docs {
		mech := d.Name
		t.Run(string(mech), func(t *testing.T) {
			t.Parallel()
			if d.Doc == "" {
				t.Errorf("mechanism %q has no doc line for -list-mechanisms", mech)
			}

			// Round-trip through descriptor JSON validation: the name a
			// user writes in an isca.json-style spec must be accepted.
			js := fmt.Sprintf(`{"name":"conf","workloads":["mysql"],"configs":[{"label":"x","mechanism":%q}]}`, mech)
			if _, err := ParseDescriptor(strings.NewReader(js)); err != nil {
				t.Fatalf("descriptor validation rejects mechanism %q: %v", mech, err)
			}

			// Round-trip through the result-cache key: the mechanism
			// name must be embedded verbatim (cache cells must not
			// alias across mechanisms).
			cfg := sim.NewConfig(prof, mech)
			cfg.MaxInstructions = 50_000
			cfg.WarmupInstructions = 10_000
			key := sim.ConfigKey(cfg)
			if !strings.Contains(key, "mech="+string(mech)+"|") {
				t.Errorf("ConfigKey does not embed mechanism name: %q", key)
			}

			// The binding must assemble into a machine that simulates.
			r, err := sim.RunOne(cfg)
			if err != nil {
				t.Fatalf("RunOne: %v", err)
			}
			if r.Instructions < cfg.MaxInstructions {
				t.Errorf("retired %d < requested %d", r.Instructions, cfg.MaxInstructions)
			}
			if r.IPC <= 0.05 || r.IPC > 6 {
				t.Errorf("implausible IPC %.3f", r.IPC)
			}

			// Retry ledger: every load/store issue the backend saw
			// rejected is one L1D demand retry in the hierarchy, and vice
			// versa. Checked on the default run and on one whose 2-entry
			// L1D MSHR file forces a retry storm.
			tight := cfg
			tight.L1DMSHRs = 2
			rt, err := sim.RunOne(tight)
			if err != nil {
				t.Fatalf("RunOne with 2 L1D MSHRs: %v", err)
			}
			if rt.BE.MemRetries == 0 {
				t.Error("2 L1D MSHRs produced no rejected load/store issue")
			}
			for _, res := range []sim.Result{r, rt} {
				if res.BE.MemRetries != res.Mem.L1D.Retries {
					t.Errorf("retry ledger: backend MemRetries %d != hierarchy L1D retries %d",
						res.BE.MemRetries, res.Mem.L1D.Retries)
				}
			}

			// Counter-sanity invariant of the memory request path: over
			// an unreset window (warmup must be zero — ResetStats wipes
			// the request side of in-flight fills) every line a level
			// installed must trace back to a surviving fill request:
			// fills == requests − merges − drops − retries, per level,
			// and every MSHR allocation must complete once drained. A
			// mechanism whose prefetcher bypassed the request path would
			// break the ledger here.
			icfg := cfg
			icfg.MaxInstructions = 30_000
			icfg.WarmupInstructions = 0
			prog, err := sim.SharedImage(icfg.Workload)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.NewMachineWithProgram(icfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			m.Hier.Drain()
			if err := m.Hier.CheckCounters(); err != nil {
				t.Errorf("counter-sanity invariant: %v", err)
			}
		})
	}

	// Key distinctness is a cross-mechanism property; compute serially.
	for _, mech := range sim.Mechanisms() {
		cfg := sim.NewConfig(prof, mech)
		key := sim.ConfigKey(cfg)
		if prev, dup := seenKeys[key]; dup {
			t.Errorf("mechanisms %q and %q share a cache key", mech, prev)
		}
		seenKeys[key] = mech
	}
}
