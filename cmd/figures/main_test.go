package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"udpsim/internal/experiments"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// TestMain lets a test run the command itself: a child started with
// FIGURES_TEST_MAIN=1 executes main with the child's arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// figuresCmd runs the command with args and returns its exit code,
// stdout and stderr.
func figuresCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// writeTrace records n records of a small profile into dir/file and
// returns its path. The file name, not the content, names the trace.
func writeTrace(t *testing.T, dir, file string, n uint64) string {
	t.Helper()
	p := workload.MustByName("postgres")
	p.Funcs, p.DispatchTargets = 30, 20
	var buf bytes.Buffer
	if err := trace.RecordN2(&buf, p, 1, n); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShortTraceFailsCleanly checks that a trace too short for the
// quick region's warmup and the run-ahead margin fails the flag-sized
// region's fit with exit 1, before any cell replays past its end.
func TestShortTraceFailsCleanly(t *testing.T) {
	q := experiments.QuickOptions()
	n := q.Warmup + trace.RunAhead - 1
	tr := writeTrace(t, t.TempDir(), "short.udpt2", n)
	code, _, stderr := figuresCmd(t, "-fig", "13", "-quick", "-trace", tr)
	if code != 1 || strings.Contains(stderr, "panic:") || !strings.Contains(stderr, "leave no measured region") {
		t.Errorf("figures -trace on a %d-record trace: exit %d, stderr %q; want exit 1 with the fit error", n, code, stderr)
	}
}

// TestTimelineUnderTrace checks that under -trace, -timeline names a
// loaded recording — `-timeline mysql -trace mysql.udpt2` replays
// trace:mysql-trace, not the synthetic mysql — and fails on a name
// that is none of them.
func TestTimelineUnderTrace(t *testing.T) {
	loaded := []string{"trace:mysql-trace", "trace:web"}
	for _, tc := range []struct {
		app    string
		traced bool
		want   string
	}{
		{"mysql", false, "mysql"},
		{"trace:web", false, "trace:web"},
		{"mysql", true, "trace:mysql-trace"},
		{"mysql-trace", true, "trace:mysql-trace"},
		{"trace:mysql-trace", true, "trace:mysql-trace"},
		{"recordings/mysql.udpt2", true, "trace:mysql-trace"},
		{"web", true, "trace:web"},
		{"xgboost", true, ""},
	} {
		got, err := timelineWorkload(tc.app, loaded, tc.traced)
		if got != tc.want || (err != nil) != (tc.want == "") {
			t.Errorf("timelineWorkload(%q, traced=%v) = %q, %v; want %q", tc.app, tc.traced, got, err, tc.want)
		}
	}

	tr := writeTrace(t, t.TempDir(), "mysql.udpt2", 40_000)
	code, out, stderr := figuresCmd(t, "-timeline", "mysql", "-trace", tr,
		"-instrs", "20000", "-warmup", "1000", "-interval", "2000")
	if code != 0 || !strings.HasPrefix(out, "Timeline — trace:mysql-trace,") {
		t.Errorf("-timeline mysql -trace mysql.udpt2: exit %d, stdout %q, stderr %q; want the trace's timeline", code, out, stderr)
	}
}

// TestRenderGolden feeds fixed rows and series through both figure
// shapes and compares the printed table and the SVG byte for byte
// with goldens under testdata/.
func TestRenderGolden(t *testing.T) {
	speedups := []experiments.BarRow{
		{App: "mysql", Values: map[string]float64{"udp": 0.0123, "udp-infinite": 0.0456, "eip": -0.0071, "icache-40k": 0.0049}},
		{App: "xgboost", Values: map[string]float64{"udp": 0.1612, "udp-infinite": 0.2034, "eip": 0.0811, "icache-40k": 0.0302}},
	}
	// xgboost lacks udp-infinite: the table and the chart show it as 0.
	mpki := []experiments.BarRow{
		{App: "mysql", Values: map[string]float64{"baseline": 41.27, "udp": 30.55, "udp-infinite": 27.04, "eip": 35.96, "icache-40k": 38.13}},
		{App: "xgboost", Values: map[string]float64{"baseline": 12.81, "udp": 6.42, "eip": 9.97, "icache-40k": 11.05}},
	}
	lost := []experiments.BarRow{
		{App: "mysql", Values: map[string]float64{"baseline": 812.4, "udp": 640.5, "udp-infinite": 571.2, "eip": 702.9, "icache-40k": 760.0}},
		{App: "xgboost", Values: map[string]float64{"baseline": 231.6, "udp": 95.0, "udp-infinite": 80.49, "eip": 170.51, "icache-40k": 212.3}},
	}
	signed := []experiments.SweepSeries{
		{App: "mysql", X: experiments.UDPFTQSizes, Values: []float64{-0.0124, 0.0087, 0.0342, 0.0511}},
		{App: "xgboost", X: experiments.UDPFTQSizes, Values: []float64{0.0215, 0.1034, 0.1622, 0.1598}},
	}
	unsigned := []experiments.SweepSeries{
		{App: "mysql", X: experiments.FTQDepths, Values: []float64{0.912, 0.884, 0.851, 0.803, 0.771, 0.702, 0.655, 0.601, 0.574}},
		{App: "xgboost", X: experiments.FTQDepths, Values: []float64{0.981, 0.972, 0.960, 0.944, 0.921, 0.893, 0.866, 0.840, 0.8125}},
	}

	for _, tc := range []struct {
		golden string
		fig    int
		rows   []experiments.BarRow
		series []experiments.SweepSeries
	}{
		{golden: "speedup_bars", fig: 13, rows: speedups},
		{golden: "mpki_bars", fig: 14, rows: mpki},
		{golden: "lost_bars", fig: 15, rows: lost},
		{golden: "signed_sweep", fig: 17, series: signed},
		{golden: "unsigned_sweep", fig: 4, series: unsigned},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var f figure
			for _, g := range figures {
				if g.num == tc.fig {
					f = g
				}
			}
			var out bytes.Buffer
			var svg string
			var err error
			if tc.rows != nil {
				svg, err = f.renderBars(&out, tc.rows)
			} else {
				svg, err = f.renderSweep(&out, tc.series)
			}
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.golden+".txt", out.Bytes())
			compareGolden(t, tc.golden+".svg", []byte(svg))
		})
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden:\n got: %q\nwant: %q", name, got, want)
	}
}
