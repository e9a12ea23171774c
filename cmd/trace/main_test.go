package main

import (
	"os"
	"path/filepath"
	"testing"

	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

func TestRecordFileRemovesFailedOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.udpt2")
	bad := workload.MustByName("mysql")
	bad.Funcs = 0 // fails validation, so recording fails after the file exists
	if _, err := recordFile(path, bad, 0, 100, trace.EncBinary); err == nil {
		t.Fatal("recording an invalid profile succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed recording left %s behind (stat: %v)", path, err)
	}
}

func TestRecordFileWritesLoadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.udpt2")
	p := workload.MustByName("postgres")
	p.Funcs = 20
	p.DispatchTargets = 10
	size, err := recordFile(path, p, 0, 1_000, trace.EncBinary)
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
