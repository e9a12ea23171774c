package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
	"udpsim/internal/tune"
)

// tuneSpaceJSON is a 6-cell space kept tiny so the whole search (two
// rungs + refinement) runs in well under a second.
func tuneSpaceJSON(seed int64) []byte {
	return []byte(fmt.Sprintf(`{
		"name": "tune-e2e",
		"workloads": ["mysql"],
		"objective": "ipc",
		"instructions": 24000,
		"warmup": 8000,
		"seed": %d,
		"search": {"samples": 4, "eta": 2, "rungs": 2, "refine": 4},
		"dimensions": [
			{"name": "mech", "field": "mechanism", "choices": ["baseline", "udp"]},
			{"name": "l2m", "field": "l2_mshrs", "values": [8, 16, 32]}
		]
	}`, seed))
}

// TestTuneE2E drives the full service path: submit, dedup, SSE frontier
// stream, terminal view with incumbent cells, and the probe jobs the
// search left behind in the ordinary job registry.
func TestTuneE2E(t *testing.T) {
	experiments.FlushResultCache()
	_, c, stop := newTestDaemon(t, t.TempDir(), serve.ServerConfig{Workers: 2})
	defer stop()

	v, err := c.Tune(context.Background(), tuneSpaceJSON(21), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if v.Deduped || v.ID == "" || !strings.HasPrefix(v.ID, "t") {
		t.Fatalf("bad submission view: %+v", v)
	}
	if v.SpaceSize != 6 || v.PlannedProbes != 6 {
		t.Fatalf("space accounting: size=%d planned=%d, want 6/6", v.SpaceSize, v.PlannedProbes)
	}
	if v.TraceID == "" {
		t.Fatalf("tune run has no trace ID")
	}

	// A concurrent identical POST must dedup onto the same run.
	dup, err := c.Tune(context.Background(), tuneSpaceJSON(21), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("duplicate Tune: %v", err)
	}
	if dup.ID != v.ID || !dup.Deduped {
		t.Fatalf("duplicate submission not deduped: %+v", dup)
	}

	types := map[string]int{}
	final, err := c.TuneStream(context.Background(), v.ID, 0, func(ev serve.Event) error {
		types[ev.Type]++
		return nil
	})
	if err != nil {
		t.Fatalf("TuneStream: %v", err)
	}
	if final.State != serve.JobDone {
		t.Fatalf("run finished %s (%s), want done", final.State, final.Error)
	}
	for _, want := range []string{"queued", "started", "probe", "generation", "incumbent", "done"} {
		if types[want] == 0 {
			t.Fatalf("no %q event on the stream; saw %v", want, types)
		}
	}
	if final.Stats == nil || final.Stats.HalvingProbes != 6 {
		t.Fatalf("terminal stats: %+v, want 6 halving probes", final.Stats)
	}
	if final.Best == nil || final.Best.Score <= 0 || len(final.Best.Cells) != 1 {
		t.Fatalf("terminal best: %+v", final.Best)
	}

	// The incumbent's cell is fetchable from the content-addressed
	// result endpoint, like any job cell.
	rec, err := c.Result(context.Background(), final.Best.Cells[0].ResultKey)
	if err != nil {
		t.Fatalf("fetching incumbent cell: %v", err)
	}
	if rec.Result.IPC != final.Best.Cells[0].IPC {
		t.Fatalf("incumbent cell IPC %v != stored %v", final.Best.Cells[0].IPC, rec.Result.IPC)
	}

	// GET /v1/tune/{id} agrees with the terminal stream event.
	got, err := c.TuneRun(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("TuneRun: %v", err)
	}
	if got.State != serve.JobDone || got.Best == nil || got.Best.Label != final.Best.Label {
		t.Fatalf("GET view disagrees with terminal event: %+v", got)
	}
	if got.Submissions != 2 {
		t.Fatalf("submissions = %d, want 2", got.Submissions)
	}

	// The list endpoint knows the run; probe jobs ran under the run's
	// client identity and trace.
	runs, err := c.TuneRuns(context.Background())
	if err != nil || len(runs) != 1 || runs[0].ID != v.ID {
		t.Fatalf("TuneRuns = %+v, %v", runs, err)
	}
	jobs, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	probeJobs := 0
	for _, j := range jobs {
		if j.Client == "tune:"+v.ID {
			probeJobs++
			if j.TraceID != v.TraceID {
				t.Fatalf("probe job %s trace %q, want the run's %q", j.ID, j.TraceID, v.TraceID)
			}
		}
	}
	if probeJobs == 0 {
		t.Fatalf("no probe jobs attributed to the tune run")
	}

	// Resume: replay from the middle of the stream via Last-Event-ID.
	resumed := 0
	if _, err := c.TuneStream(context.Background(), v.ID, 2, func(serve.Event) error {
		resumed++
		return nil
	}); err != nil {
		t.Fatalf("resumed TuneStream: %v", err)
	}
	total := 0
	for _, n := range types {
		total += n
	}
	if resumed != total-2 {
		t.Fatalf("resume from id 2 replayed %d events, want %d", resumed, total-2)
	}
}

// TestTuneValidation: malformed spaces are structured 400s with field
// errors, and unknown runs are 404s.
func TestTuneValidation(t *testing.T) {
	_, c, stop := newTestDaemon(t, "", serve.ServerConfig{})
	defer stop()

	_, err := c.Tune(context.Background(), []byte(`{"name":"x","workloads":["mysql"],
		"dimensions":[{"name":"a","field":"ftq","min":64,"max":8}]}`), client.SubmitOptions{})
	apiErr := &client.APIError{}
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %v", err)
	}
	if len(apiErr.Body.Fields) == 0 || !strings.Contains(apiErr.Body.Fields[0].Field, "dimensions[0]") {
		t.Fatalf("400 body carries no dimension field errors: %+v", apiErr.Body)
	}

	if _, err := c.TuneRun(context.Background(), "tdeadbeef"); !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: want 404, got %v", err)
	}
}

// TestTuneWarmStoreDaemonRestart is the ISSUE's warm-store acceptance
// property at the service level: a daemon restarted over the same
// store directory answers an identical tune request with zero new
// simulations.
func TestTuneWarmStoreDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	space := tuneSpaceJSON(33)

	experiments.FlushResultCache()
	_, c1, stop1 := newTestDaemon(t, dir, serve.ServerConfig{Workers: 2})
	v1, err := c1.Tune(context.Background(), space, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("cold Tune: %v", err)
	}
	final1, err := c1.WaitTune(context.Background(), v1.ID)
	if err != nil || final1.State != serve.JobDone {
		t.Fatalf("cold run: %v / %+v", err, final1)
	}
	stop1()

	// Restart: fresh server, same store dir, cold in-memory caches.
	experiments.FlushResultCache()
	_, c2, stop2 := newTestDaemon(t, dir, serve.ServerConfig{Workers: 2})
	defer stop2()
	missesBefore := obs.CacheMisses.Value()
	v2, err := c2.Tune(context.Background(), space, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("warm Tune: %v", err)
	}
	if v2.ID != v1.ID {
		t.Fatalf("identical space got a different run ID across restarts: %s vs %s", v2.ID, v1.ID)
	}
	final2, err := c2.WaitTune(context.Background(), v2.ID)
	if err != nil || final2.State != serve.JobDone {
		t.Fatalf("warm run: %v / %+v", err, final2)
	}
	if d := int64(obs.CacheMisses.Value() - missesBefore); d != 0 {
		t.Fatalf("warm tune re-run simulated %d cells, want 0", d)
	}
	if final2.Stats.CacheHits != final2.Stats.Probes {
		t.Fatalf("warm run: %d/%d probes store-served, want all",
			final2.Stats.CacheHits, final2.Stats.Probes)
	}
	if final2.Best.Label != final1.Best.Label || final2.Best.Score != final1.Best.Score {
		t.Fatalf("warm run found a different incumbent: %+v vs %+v", final2.Best, final1.Best)
	}
}

// TestTuneAcceptanceBandwidth is the acceptance criterion on the
// bandwidth knob space: the seeded search must find a config at least
// as good as the best full-grid cell while simulating at most 25% of
// the grid's unique cells.
func TestTuneAcceptanceBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid comparison is long; run without -short")
	}
	space := []byte(`{
		"name": "bandwidth-tune-e2e",
		"workloads": ["mysql"],
		"objective": "ipc",
		"instructions": 30000,
		"warmup": 10000,
		"seed": 1,
		"search": {"samples": 12, "eta": 4, "rungs": 2, "refine": 16},
		"dimensions": [
			{"name": "mech", "field": "mechanism", "choices": ["baseline", "udp"]},
			{"name": "l2m", "field": "l2_mshrs", "values": [4, 8, 16, 32]},
			{"name": "llcm", "field": "llc_mshrs", "values": [8, 16, 32, 64]},
			{"name": "l2f", "field": "l2_fill_cycles", "values": [1, 4]},
			{"name": "llcf", "field": "llc_fill_cycles", "values": [2, 8]}
		]
	}`)
	sp, err := tune.ParseSpace(strings.NewReader(string(space)))
	if err != nil {
		t.Fatalf("ParseSpace: %v", err)
	}
	grid := int(sp.SpaceSize()) // 128

	experiments.FlushResultCache()
	_, c, stop := newTestDaemon(t, t.TempDir(), serve.ServerConfig{Workers: 4})
	defer stop()

	missesBefore := obs.CacheMisses.Value()
	v, err := c.Tune(context.Background(), space, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	final, err := c.WaitTune(context.Background(), v.ID)
	if err != nil || final.State != serve.JobDone {
		t.Fatalf("tune run: %v / %+v", err, final)
	}
	tuneMisses := int64(obs.CacheMisses.Value() - missesBefore)
	if budget := int64(grid / 4); tuneMisses > budget {
		t.Fatalf("tune simulated %d unique cells, budget is %d (25%% of the %d-cell grid)",
			tuneMisses, budget, grid)
	}

	// Full grid at full fidelity, straight through the engine (no store
	// attached so the daemon's cells don't subsidize it).
	specs := make([]experiments.ConfigSpec, 0, grid)
	for _, vec := range sp.Enumerate() {
		specs = append(specs, sp.Spec(vec))
	}
	d, err := sp.ProbeDescriptor(specs, sp.FullFidelity())
	if err != nil {
		t.Fatalf("grid descriptor: %v", err)
	}
	results, err := experiments.RunDescriptorObserved(d, nil, 0, experiments.Options{})
	if err != nil {
		t.Fatalf("grid run: %v", err)
	}
	gridBest := 0.0
	for _, r := range results {
		if r.Result.IPC > gridBest {
			gridBest = r.Result.IPC
		}
	}
	if final.Best.Score < gridBest {
		t.Fatalf("tune best %.6f < grid best %.6f (%d probes, config %s)",
			final.Best.Score, gridBest, final.Stats.Probes, final.Best.Config)
	}
}

// asAPIError unwraps a client.APIError.
func asAPIError(err error, out **client.APIError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*client.APIError)
	if ok {
		*out = e
	}
	return ok
}
