package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// udpsim runs the command with args and returns its exit code and
// stderr.
func udpsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UDPSIM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

var tinyRun = []string{"-workload", "mysql", "-instrs", "2000", "-warmup", "0"}

// TestIntervalNeedsMetricsOut checks that -interval without
// -metrics-out, whose samples would go nowhere, is a usage error, and
// that with -metrics-out it runs and writes the samples.
func TestIntervalNeedsMetricsOut(t *testing.T) {
	code, stderr := udpsim(t, append([]string{"-interval", "500"}, tinyRun...)...)
	if code != 2 || !strings.Contains(stderr, "-interval needs -metrics-out") {
		t.Errorf("-interval without -metrics-out: exit %d, stderr %q; want exit 2 naming -metrics-out", code, stderr)
	}

	out := filepath.Join(t.TempDir(), "m.csv")
	code, stderr = udpsim(t, append([]string{"-interval", "500", "-metrics-out", out}, tinyRun...)...)
	if code != 0 {
		t.Fatalf("-interval with -metrics-out: exit %d, stderr %q", code, stderr)
	}
	if b, err := os.ReadFile(out); err != nil || bytes.Count(b, []byte("\n")) < 2 {
		t.Errorf("-metrics-out holds %q, %v; want a header and sample rows", b, err)
	}
}
