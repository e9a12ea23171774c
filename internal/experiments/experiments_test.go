package experiments

import (
	"math"
	"strings"
	"testing"

	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// tinyOptions shrinks everything so figure harnesses run in unit-test
// time; the tiny workload list still covers two contrasting apps.
func tinyOptions() Options {
	// Shrink the evaluated profiles via the sweep path by overriding
	// the workloads list only; instruction counts are already small.
	return Options{
		Instructions: 40_000,
		Warmup:       40_000,
		Simpoints:    1,
		Workloads:    []string{"mysql"},
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if c := Correlation(xs, xs); math.Abs(c-1) > 1e-9 {
		t.Errorf("self correlation %v", c)
	}
	ys := []float64{4, 3, 2, 1}
	if c := Correlation(xs, ys); math.Abs(c+1) > 1e-9 {
		t.Errorf("anti correlation %v", c)
	}
	if c := Correlation(xs, []float64{5, 5, 5, 5}); c != 0 {
		t.Errorf("constant correlation %v", c)
	}
	if c := Correlation(nil, nil); c != 0 {
		t.Errorf("empty correlation %v", c)
	}
	if c := Correlation(xs, ys[:2]); c != 0 {
		t.Errorf("mismatched lengths %v", c)
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rows, err := Figure1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.Values["perfect-icache"] < 0 {
		t.Errorf("perfect icache slowed down: %+v", r.Values)
	}
	if r.Values["no-prefetch"] > 0.01 {
		t.Errorf("no-prefetch sped up: %+v", r.Values)
	}
}

func TestFigure17SameDepthComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tinyOptions()
	series, err := Figure17(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Values) != len(UDPFTQSizes) {
		t.Fatalf("series shape: %+v", series)
	}
}

func TestRunCachesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tinyOptions()
	// Unique instruction count → fresh cache key even when other tests
	// in the package already simulated mysql/baseline.
	o.Instructions = 41_234
	var lines []string
	o.Progress = func(s string) { lines = append(lines, s) }
	r1, err := o.run("mysql", ConfigSpec{Mechanism: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || strings.Contains(lines[0], "(cached)") {
		t.Fatalf("first run progress: %q", lines)
	}
	r2, err := o.run("mysql", ConfigSpec{Mechanism: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("cache returned a different result")
	}
	// Cache hits must still report progress (tagged) so -v run counts
	// don't under-report completed work.
	if len(lines) != 2 || !strings.Contains(lines[1], "(cached)") {
		t.Errorf("second run should emit a '(cached)' progress line: %q", lines)
	}
}

func TestSortedSeriesNames(t *testing.T) {
	rows := []BarRow{
		{App: "a", Values: map[string]float64{"z": 1, "a": 2}},
		{App: "b", Values: map[string]float64{"m": 3}},
	}
	names := SortedSeriesNames(rows)
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Errorf("names = %v", names)
	}
}

func TestWorkloadsDefault(t *testing.T) {
	var o Options
	if len(o.workloads()) != len(workload.Names) {
		t.Error("default workload list wrong")
	}
}

func TestTable1Characterization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rows, err := Table1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.StaticKB == 0 || r.DynamicKB == 0 || r.BranchPct <= 0 || r.BaselineIPC <= 0 {
		t.Errorf("degenerate characterization: %+v", r)
	}
	if r.DynamicKB > r.StaticKB {
		t.Errorf("dynamic footprint %d exceeds static %d", r.DynamicKB, r.StaticKB)
	}
}

func TestDescriptorParseValidate(t *testing.T) {
	good := `{"name":"t","workloads":["mysql"],"configs":[{"label":"a","mechanism":"baseline"}]}`
	d, err := ParseDescriptor(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if d.Instructions == 0 || d.Simpoints == 0 {
		t.Error("defaults not applied")
	}
	bad := []string{
		`{`,
		`{"name":"","configs":[{"label":"a","mechanism":"baseline"}]}`,
		`{"name":"t","configs":[]}`,
		`{"name":"t","configs":[{"label":"","mechanism":"baseline"}]}`,
		`{"name":"t","configs":[{"label":"a","mechanism":"warp"}]}`,
		`{"name":"t","configs":[{"label":"a","mechanism":"baseline"},{"label":"a","mechanism":"udp"}]}`,
		`{"name":"t","workloads":["nginx"],"configs":[{"label":"a","mechanism":"baseline"}]}`,
		`{"name":"t","unknown_field":1,"configs":[{"label":"a","mechanism":"baseline"}]}`,
	}
	for i, src := range bad {
		if _, err := ParseDescriptor(strings.NewReader(src)); err == nil {
			t.Errorf("bad descriptor %d accepted", i)
		}
	}

	// A mechanism that was removed from the table is rejected as a
	// field error on its config whose reason lists every known name.
	_, err = ParseDescriptor(strings.NewReader(
		`{"name":"t","configs":[{"label":"a","mechanism":"udp-uftq"}]}`))
	ve := AsValidationError(err)
	if ve == nil {
		t.Fatalf("removed mechanism: error is %T, want *ValidationError: %v", err, err)
	}
	if len(ve.Fields) != 1 || ve.Fields[0].Field != "configs[0].mechanism" {
		t.Fatalf("removed mechanism: fields = %v, want one configs[0].mechanism error", ve.Fields)
	}
	for _, m := range sim.Mechanisms() {
		if !strings.Contains(ve.Fields[0].Reason, string(m)) {
			t.Errorf("removed mechanism: reason %q does not list %q", ve.Fields[0].Reason, m)
		}
	}
}

func TestDescriptorEmptyWorkloadsMeansAll(t *testing.T) {
	d, err := ParseDescriptor(strings.NewReader(
		`{"name":"t","configs":[{"label":"a","mechanism":"baseline"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workload.Names) {
		t.Errorf("%d workloads", len(d.Workloads))
	}
}

func TestRunDescriptorAndPivot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d, err := ParseDescriptor(strings.NewReader(`{
		"name":"t","workloads":["mysql"],"instructions":60000,"warmup":20000,
		"configs":[
			{"label":"baseline","mechanism":"baseline"},
			{"label":"ftq16","mechanism":"baseline","ftq":16}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the workload for test speed; run the grid two-wide to
	// exercise the parallel path (row order must be unaffected).
	results, err := RunDescriptor(d, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if results[1].Result.FinalFTQDepth != 16 {
		t.Errorf("override not applied: %d", results[1].Result.FinalFTQDepth)
	}
	var csv strings.Builder
	if err := WriteCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "mysql,ftq16,") {
		t.Error("CSV missing row")
	}
	rows, err := SpeedupTable(results, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Values) != 1 {
		t.Errorf("pivot shape: %+v", rows)
	}
	if _, err := SpeedupTable(results, "nope"); err == nil {
		t.Error("unknown base accepted")
	}
}

// TestAllFigureHarnesses exercises every figure function end to end at
// micro fidelity on one workload, checking structural invariants.
func TestAllFigureHarnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tinyOptions()

	series, optima, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Values) != len(FTQDepths) {
		t.Fatalf("Figure3 shape: %+v", series)
	}
	if v := valueAt(&series[0], 32); v != 0 {
		t.Errorf("Figure3 not normalized to depth 32: %v", v)
	}
	if optima["mysql"] == 0 {
		t.Error("Figure3 found no optimum")
	}

	for name, fn := range map[string]func(Options) ([]SweepSeries, error){
		"Figure4": Figure4, "Figure5": Figure5, "Figure6": Figure6, "Figure8": Figure8,
	} {
		ss, err := fn(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range ss {
			for _, v := range s.Values {
				if v < 0 {
					t.Errorf("%s has negative value %v", name, v)
				}
			}
		}
	}
	// Ratio metrics are bounded by 1.
	for name, fn := range map[string]func(Options) ([]SweepSeries, error){
		"Figure4": Figure4, "Figure5": Figure5, "Figure6": Figure6,
	} {
		ss, _ := fn(o)
		for _, s := range ss {
			for _, v := range s.Values {
				if v > 1 {
					t.Errorf("%s ratio %v > 1", name, v)
				}
			}
		}
	}

	rows, optima2, err := Figure11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Values) != 4 {
		t.Fatalf("Figure11 shape: %+v", rows)
	}
	if optima2["mysql"] != optima["mysql"] {
		t.Error("Figure11 recomputed different optima (cache broken)")
	}

	mpki, err := Figure12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(mpki) != 1 || mpki[0].Values["baseline"] <= 0 {
		t.Fatalf("Figure12: %+v", mpki)
	}

	udpRows, err := Figure13(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(udpRows[0].Values) != len(UDPSeries) {
		t.Fatalf("Figure13 series: %+v", udpRows[0].Values)
	}

	mpki14, err := Figure14(o)
	if err != nil {
		t.Fatal(err)
	}
	if mpki14[0].Values["udp"] < 0 {
		t.Error("Figure14 negative MPKI")
	}

	lost, err := Figure15(o)
	if err != nil {
		t.Fatal(err)
	}
	if lost[0].Values["baseline"] < 0 {
		t.Error("Figure15 negative lost count")
	}

	btb, err := Figure16(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(btb[0].X) != len(BTBSizes) {
		t.Fatalf("Figure16 grid: %+v", btb[0].X)
	}

	tbl, cu, ct, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl) != 1 || tbl[0].Utility <= 0 || tbl[0].Timeliness <= 0 {
		t.Fatalf("Table3: %+v", tbl)
	}
	// Correlations are degenerate with one workload but must be finite.
	if math.IsNaN(cu) || math.IsNaN(ct) {
		t.Error("Table3 correlations NaN")
	}
}
