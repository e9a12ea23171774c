package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricEmitted runs every workload in both modes at the short
// sizes and requires exactly the metrics BENCHMARK.json names, each
// with its unit, from a run whose outputs all checked out. daemon-mixed
// is not in BENCHMARK.json (too noisy on shared hosts, see README.md)
// but reports the same metrics plus its job metrics.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads := []string{"daemon-mixed"}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 7, seconds: 0.2, size: shortSizes, metrics: map[string]metric{}}
			rep, err := run(e, wl, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", wl, traced, rep.Failed, rep.Attempted, e.notes)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
				if wl == "daemon-mixed" {
					want["job_p50_ms"], want["jobs_per_s"] = "ms", "1/s"
				}
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl, traced, name, got, unit)
				}
			}
			for name := range rep.Metrics {
				// job_p99_ms needs more jobs than the short sizes run.
				if _, ok := want[name]; !ok && !(wl == "daemon-mixed" && name == "job_p99_ms") {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", wl, traced, name)
				}
			}
		}
	}
}

// TestStageDriverMatchesRun: the traced mode's benchmark-side stage
// driver must reproduce Machine.Run's Result exactly.
func TestStageDriverMatchesRun(t *testing.T) {
	for _, mech := range []sim.Mechanism{sim.MechBaseline, sim.MechUDP, sim.MechEIP} {
		cfg := sim.NewConfig(workload.MustByName("xgboost"), mech)
		cfg.WarmupInstructions, cfg.MaxInstructions = 5_000, 10_000
		prog, err := sim.SharedImage(cfg.Workload)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.NewMachineWithProgram(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		want := m.Run()
		m2, err := sim.NewMachineWithProgram(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		got, st := runStaged(m2, cfg.WarmupInstructions, cfg.MaxInstructions)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stage driver result differs from Machine.Run", mech)
		}
		if st.samples == 0 || st.hier <= 0 || st.fe <= 0 || st.be <= 0 {
			t.Errorf("%s: no stage samples: %+v", mech, st)
		}
	}
}
