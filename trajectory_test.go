package udpsim_test

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchTrajectory holds BENCH.json, the committed speed trajectory,
// to its shape: every entry names its parent commit, its verdict and any
// claimed metric, with the parent and change medians of every end-to-end
// metric BENCHMARK.json declares, on every workload it declares. Only
// the newest entry may leave its own commit unnamed.
func TestBenchTrajectory(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	var traj struct {
		Entries []struct {
			Commit *string `json:"commit"`
			Parent string  `json:"parent"`
			Claim  *struct {
				Metric   string `json:"metric"`
				Workload string `json:"workload"`
			} `json:"claim"`
			Verdict string                                                  `json:"verdict"`
			Medians map[string]map[string]struct{ Parent, Change *float64 } `json:"medians"`
		} `json:"entries"`
	}
	for file, v := range map[string]any{"BENCHMARK.json": &spec, "BENCH.json": &traj} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	if len(traj.Entries) == 0 {
		t.Fatal("BENCH.json holds no entries")
	}
	declared := map[string]bool{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = true
	}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
	}
	for i, e := range traj.Entries {
		if e.Parent == "" || e.Verdict == "" || (e.Commit == nil || *e.Commit == "") && i != len(traj.Entries)-1 {
			t.Errorf("entry %d (parent %q): commit, parent or verdict missing", i, e.Parent)
		}
		if e.Claim != nil && (!declared[e.Claim.Metric] || !declared[e.Claim.Workload]) {
			t.Errorf("entry %d: claim %+v names no declared metric and workload", i, *e.Claim)
		}
		for _, w := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				if v := e.Medians[w.Name][m.Name]; v.Parent == nil || v.Change == nil {
					t.Errorf("entry %d: %s %s lacks a parent or change median", i, w.Name, m.Name)
				}
			}
		}
	}
}
