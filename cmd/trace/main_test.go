package main

import (
	"os"
	"path/filepath"
	"testing"

	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// TestRecordFileRemovesFailedOutput checks that a recording that fails
// leaves no file behind: an invalid profile fails after the file
// exists, and zero instructions, which no loader accepts, fail before
// it is created.
func TestRecordFileRemovesFailedOutput(t *testing.T) {
	bad := workload.MustByName("mysql")
	bad.Funcs = 0 // fails validation
	for _, tc := range []struct {
		name   string
		prof   workload.Profile
		instrs uint64
	}{
		{"invalid-profile", bad, 100},
		{"zero-instrs", workload.MustByName("mysql"), 0},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".udpt2")
		if _, err := recordFile(path, tc.prof, 0, tc.instrs); err == nil {
			t.Errorf("%s: recording succeeded", tc.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: failed recording left %s behind (stat: %v)", tc.name, path, err)
		}
	}
}

func TestRecordFileWritesLoadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.udpt2")
	p := workload.MustByName("postgres")
	p.Funcs = 20
	p.DispatchTargets = 10
	size, err := recordFile(path, p, 0, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != size {
		t.Fatalf("reported size %d, file: %v %v", size, info, err)
	}
	src, err := trace.LoadSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 1_000 {
		t.Errorf("trace holds %d records, want 1000", src.Len())
	}
}
