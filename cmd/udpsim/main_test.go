package main

import (
	"bytes"
	"errors"
	"fmt"
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
// UDPSIM_TEST_MAIN=1 executes main with the child's arguments.
func TestMain(m *testing.M) {
	if os.Getenv("UDPSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// udpsim runs the command with args and returns its exit code,
// stdout and stderr.
func udpsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UDPSIM_TEST_MAIN=1")
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

var tinyRun = []string{"-workload", "mysql", "-instrs", "2000", "-warmup", "0"}

// TestIntervalNeedsMetricsOut checks that -interval without
// -metrics-out, whose samples would go nowhere, is a usage error, and
// that with -metrics-out it runs and writes the samples.
func TestIntervalNeedsMetricsOut(t *testing.T) {
	code, _, stderr := udpsim(t, append([]string{"-interval", "500"}, tinyRun...)...)
	if code != 2 || !strings.Contains(stderr, "-interval needs -metrics-out") {
		t.Errorf("-interval without -metrics-out: exit %d, stderr %q; want exit 2 naming -metrics-out", code, stderr)
	}

	out := filepath.Join(t.TempDir(), "m.csv")
	code, _, stderr = udpsim(t, append([]string{"-interval", "500", "-metrics-out", out}, tinyRun...)...)
	if code != 0 {
		t.Fatalf("-interval with -metrics-out: exit %d, stderr %q", code, stderr)
	}
	if b, err := os.ReadFile(out); err != nil || bytes.Count(b, []byte("\n")) < 2 {
		t.Errorf("-metrics-out holds %q, %v; want a header and sample rows", b, err)
	}
}

// TestRunMatchesEngine checks that a non-default udpsim run is the
// engine's cell for the same ConfigSpec: it prints the IPC and cycle
// count experiments.RunDescriptor returns for it.
func TestRunMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	code, out, stderr := udpsim(t, "-workload", "mysql", "-mechanism", "udp", "-ftq", "48", "-btb", "1024",
		"-icache", "40960", "-udp-threshold", "60", "-instrs", "30000", "-warmup", "20000")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	d := &experiments.Descriptor{
		Name:         "engine",
		Workloads:    []string{"mysql"},
		Instructions: 30_000,
		Warmup:       20_000,
		Configs: []experiments.ConfigSpec{{Label: "udp", Mechanism: "udp",
			FTQ: 48, BTB: 1024, ICacheKB: 40, UDPConfidence: 60}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunDescriptor(d, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0].Result
	for _, want := range []string{fmt.Sprintf("IPC           %.4f\n", r.IPC), fmt.Sprintf("cycles        %d\n", r.Cycles)} {
		if !strings.Contains(out, want) {
			t.Errorf("udpsim output lacks the engine's %q:\n%s", want, out)
		}
	}
}

// TestRejectedRuns checks runs that must fail with exit 1 before
// simulating: an icache that is not a whole KiB, and more than one
// simpoint of a trace, which records a single region.
func TestRejectedRuns(t *testing.T) {
	p := workload.MustByName("postgres")
	p.Funcs, p.DispatchTargets = 30, 20
	var buf bytes.Buffer
	if err := trace.RecordN2(&buf, p, 1, 12_500); err != nil {
		t.Fatal(err)
	}
	tr := filepath.Join(t.TempDir(), "small.udpt2")
	if err := os.WriteFile(tr, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append([]string{"-icache", "40000"}, tinyRun...), "not a whole KiB"},
		{[]string{"-trace", tr, "-simpoints", "2", "-instrs", "2000", "-warmup", "0"}, "support only 1 simpoint"},
	} {
		code, _, stderr := udpsim(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("udpsim %v: exit %d, stderr %q; want exit 1 naming %q", tc.args, code, stderr, tc.want)
		}
	}
}
