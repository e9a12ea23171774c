package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"udpsim/internal/experiments"
)

// TestMain lets a test run the command itself: a child started with
// SWEEP_TEST_MAIN=1 executes main with the child's arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweep runs the command with args and returns its stdout; a non-zero
// exit is returned as an error carrying stderr.
func sweep(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return stdout.String(), &exitError{err: err, stderr: stderr.String()}
	}
	return stdout.String(), nil
}

type exitError struct {
	err    error
	stderr string
}

func (e *exitError) Error() string { return e.err.Error() + ": " + e.stderr }

var btbArgs = []string{"-workload", "mysql", "-param", "btb", "-values", "1024,16384",
	"-instrs", "30000", "-warmup", "20000"}

// TestSweepRowsMatchEngine checks that each swept row is the engine's
// Result for the same (workload, ConfigSpec) cell, so a sweep measures
// the region every other driver of that cell measures.
func TestSweepRowsMatchEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	out, err := sweep(t, btbArgs...)
	if err != nil {
		t.Fatal(err)
	}
	d := &experiments.Descriptor{
		Name:         "engine",
		Workloads:    []string{"mysql"},
		Instructions: 30_000,
		Warmup:       20_000,
		Configs: []experiments.ConfigSpec{
			{Label: "small", Mechanism: "baseline", BTB: 1024},
			{Label: "large", Mechanism: "baseline", BTB: 16384},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunDescriptor(d, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+len(res) {
		t.Fatalf("sweep printed %d lines, want %d:\n%s", len(lines), 2+len(res), out)
	}
	for i, v := range []int{1024, 16384} {
		if got, want := lines[2+i], row(v, res[i].Result); got != want {
			t.Errorf("btb %d: sweep row %q, engine row %q", v, got, want)
		}
	}
}

// TestSweepBatchedMatchesUnbatched checks that -batch is a pure speed
// knob: the lockstep-batched CSV is byte-identical to the unbatched one.
func TestSweepBatchedMatchesUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	plain, err := sweep(t, btbArgs...)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := sweep(t, append([]string{"-batch", "-j", "2"}, btbArgs...)...)
	if err != nil {
		t.Fatal(err)
	}
	if plain != batched {
		t.Errorf("batched CSV differs\n--- unbatched\n%s--- batched\n%s", plain, batched)
	}
}

// TestSweepRejectsPartialKiB checks that an icache size that is not a
// whole KiB fails instead of being rounded.
func TestSweepRejectsPartialKiB(t *testing.T) {
	if _, err := paramSpec("icache", "baseline", 40_000); err == nil {
		t.Error("paramSpec accepted a 40000-byte icache")
	}
	if cs, err := paramSpec("icache", "baseline", 40*1024); err != nil || cs.ICacheKB != 40 {
		t.Errorf("paramSpec(icache, 40 KiB) = %+v, %v", cs, err)
	}
	_, err := sweep(t, "-workload", "mysql", "-param", "icache", "-values", "40000", "-instrs", "1000", "-warmup", "0")
	if err == nil || !strings.Contains(err.Error(), "not a whole KiB") {
		t.Errorf("sweep -param icache -values 40000: err = %v, want a whole-KiB error", err)
	}
}
