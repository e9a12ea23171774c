package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
	"udpsim/internal/trace"
	"udpsim/internal/workload"
)

// TestServerTraceDescriptorDedup is the portable-frontend daemon gate:
// two submissions of the same trace descriptor dedup onto one
// simulation keyed by the trace's content hash, a hash-only descriptor
// (no file) lands on the same cell, and the result round-trips through
// the content-addressed store across a daemon restart.
func TestServerTraceDescriptorDedup(t *testing.T) {
	experiments.FlushResultCache()
	dir := t.TempDir()

	// Record a trace long enough for warmup+measure plus the engine's
	// runahead margin.
	p := workload.MustByName("postgres")
	p.Funcs = 30
	p.DispatchTargets = 20
	var buf bytes.Buffer
	if err := trace.RecordN2(&buf, p, 6, 200_000); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "svcdedup.udpt2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	probe, err := trace.LoadSourceBytes("probe", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sha := probe.SHA256()

	descFile := []byte(fmt.Sprintf(`{
		"name": "trace-dedup-e2e",
		"traces": [{"name": "svcdedup", "file": %q}],
		"instructions": 30000,
		"warmup": 5000,
		"configs": [{"label": "base", "mechanism": "baseline"}]
	}`, path))
	descSHA := []byte(fmt.Sprintf(`{
		"name": "trace-dedup-e2e-by-hash",
		"traces": [{"name": "svcdedup", "sha256": %q}],
		"instructions": 30000,
		"warmup": 5000,
		"configs": [{"label": "base", "mechanism": "baseline"}]
	}`, sha))

	storeDir := filepath.Join(dir, "store")
	_, c1, stop1 := newTestDaemon(t, storeDir, serve.ServerConfig{})
	missesBefore := obs.CacheMisses.Value()

	v1, err := c1.Submit(context.Background(), descFile, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	f1, err := c1.Wait(context.Background(), v1.ID)
	if err != nil || f1.State != serve.JobDone {
		t.Fatalf("job 1: %+v err=%v", f1, err)
	}
	v2, err := c1.Submit(context.Background(), descFile, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if v2.ID != v1.ID {
		t.Fatalf("identical trace descriptors got distinct jobs %s and %s", v1.ID, v2.ID)
	}
	f2, err := c1.Wait(context.Background(), v2.ID)
	if err != nil || f2.State != serve.JobDone {
		t.Fatalf("job 2: %+v err=%v", f2, err)
	}
	if d := int64(obs.CacheMisses.Value() - missesBefore); d != 1 {
		t.Fatalf("two submissions simulated %d cells, want exactly 1", d)
	}
	if len(f1.Cells) != 1 || f1.Cells[0].IPC <= 0 {
		t.Fatalf("cell metrics missing: %+v", f1.Cells)
	}
	wantIPC := f1.Cells[0].IPC
	resultKey := f1.Cells[0].ResultKey

	// A descriptor that names the trace only by its content hash — no
	// file, the daemon-resubmission shape — must land on the same cell:
	// no new simulation, identical content address.
	v3, err := c1.Submit(context.Background(), descSHA, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit by hash: %v", err)
	}
	f3, err := c1.Wait(context.Background(), v3.ID)
	if err != nil || f3.State != serve.JobDone {
		t.Fatalf("hash job: %+v err=%v", f3, err)
	}
	if d := int64(obs.CacheMisses.Value() - missesBefore); d != 1 {
		t.Fatalf("hash-only descriptor resimulated (misses = %d, want 1)", d)
	}
	if f3.Cells[0].ResultKey != resultKey {
		t.Fatalf("hash-only submission keyed to %s, file submission to %s — cell keys must derive from the trace content hash",
			f3.Cells[0].ResultKey, resultKey)
	}
	stop1()

	// "Restart": flush the in-process memo cache, open a new daemon on
	// the same store directory, resubmit. The record must be served from
	// disk — zero simulations, one store hit, identical metrics.
	experiments.FlushResultCache()
	_, c2, stop2 := newTestDaemon(t, storeDir, serve.ServerConfig{})
	defer stop2()
	missesBefore = obs.CacheMisses.Value()
	hitsBefore := obs.StoreHits.Value()
	v4, err := c2.Submit(context.Background(), descFile, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	f4, err := c2.Wait(context.Background(), v4.ID)
	if err != nil || f4.State != serve.JobDone {
		t.Fatalf("restart job: %+v err=%v", f4, err)
	}
	if d := int64(obs.CacheMisses.Value() - missesBefore); d != 0 {
		t.Fatalf("restart resimulated %d cells, want 0", d)
	}
	if d := int64(obs.StoreHits.Value() - hitsBefore); d != 1 {
		t.Fatalf("store hits delta = %d, want 1", d)
	}
	if f4.Cells[0].IPC != wantIPC {
		t.Fatalf("restarted IPC %v != original %v", f4.Cells[0].IPC, wantIPC)
	}
}

// TestServerRejectsOverlongTraceDescriptor: a trace descriptor whose
// region is longer than its recording, or fits but leaves less than
// the trace.RunAhead margin after it, is a structured 400 at submit —
// it never reaches a scheduler worker, where replaying past the end of
// the trace would take the whole daemon down — and the daemon keeps
// answering afterwards.
func TestServerRejectsOverlongTraceDescriptor(t *testing.T) {
	dir := t.TempDir()
	p := workload.MustByName("postgres")
	p.Funcs = 30
	p.DispatchTargets = 20
	var buf bytes.Buffer
	if err := trace.RecordN2(&buf, p, 7, 5_000); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "short.udpt2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c, stop := newTestDaemon(t, "", serve.ServerConfig{Workers: 1})
	defer stop()
	for _, region := range []struct{ warmup, instrs uint64 }{{0, 50_000}, {1_000, 4_000}} {
		desc := []byte(fmt.Sprintf(`{
			"name": "trace-overlong",
			"traces": [{"name": "short", "file": %q}],
			"warmup": %d,
			"instructions": %d,
			"configs": [{"label": "base", "mechanism": "baseline"}]
		}`, path, region.warmup, region.instrs))
		_, err := c.Submit(context.Background(), desc, client.SubmitOptions{})
		apiErr, ok := err.(*client.APIError)
		if !ok || apiErr.StatusCode != http.StatusBadRequest {
			t.Fatalf("region %+v: submit err = %v, want a 400", region, err)
		}
		if len(apiErr.Body.Fields) != 1 || apiErr.Body.Fields[0].Field != "traces[0]" {
			t.Fatalf("region %+v: 400 fields = %+v, want one traces[0] entry", region, apiErr.Body.Fields)
		}
		h, err := c.Health(context.Background())
		if err != nil || h.Status != "ok" {
			t.Fatalf("healthz after the rejected submit: %+v, err %v", h, err)
		}
	}
}
