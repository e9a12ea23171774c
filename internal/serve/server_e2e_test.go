package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
)

// newTestDaemon spins up an in-process daemon over a fresh (or given)
// store directory and returns a connected client.
func newTestDaemon(t *testing.T, storeDir string, cfg serve.ServerConfig) (*serve.Server, *client.Client, func()) {
	t.Helper()
	if storeDir != "" {
		st, err := serve.OpenStore(storeDir, 0, nil)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		cfg.Store = st
	}
	srv := serve.NewServer(cfg)
	hs := httptest.NewServer(srv.Handler())
	c := client.New(hs.URL, nil)
	return srv, c, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		hs.Close()
	}
}

// descriptorJSON builds a small one-cell descriptor. Distinct
// instruction counts keep tests' cache keys disjoint.
func descriptorJSON(name string, instructions uint64) []byte {
	return []byte(fmt.Sprintf(`{
		"name": %q,
		"workloads": ["mysql"],
		"instructions": %d,
		"warmup": 20000,
		"simpoints": 1,
		"configs": [{"label": "base", "mechanism": "baseline"}]
	}`, name, instructions))
}

// TestServerConcurrentDedup is the ISSUE's headline -race test: N
// concurrent clients submit an identical descriptor and exactly one
// simulation runs, proven by the udpsim_cache_misses counter; everyone
// reads byte-identical result records.
func TestServerConcurrentDedup(t *testing.T) {
	experiments.FlushResultCache()
	_, c, stop := newTestDaemon(t, t.TempDir(), serve.ServerConfig{Workers: 2})
	defer stop()

	missesBefore := obs.CacheMisses.Value()
	const clients = 6
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		views []serve.JobView
	)
	desc := descriptorJSON("dedup-e2e", 61_000)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc := client.New(c.Base(), nil)
			cc.Name = fmt.Sprintf("client-%d", i)
			v, err := cc.Submit(context.Background(), desc, client.SubmitOptions{})
			if err != nil {
				t.Errorf("client %d submit: %v", i, err)
				return
			}
			final, err := cc.Wait(context.Background(), v.ID)
			if err != nil {
				t.Errorf("client %d wait: %v", i, err)
				return
			}
			mu.Lock()
			views = append(views, *final)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(views) != clients {
		t.Fatalf("only %d/%d clients finished", len(views), clients)
	}
	id := views[0].ID
	for _, v := range views {
		if v.ID != id || v.State != serve.JobDone {
			t.Fatalf("client saw job %s state %s, want %s done", v.ID, v.State, id)
		}
		if len(v.Cells) != 1 || v.Cells[0].IPC <= 0 {
			t.Fatalf("terminal view missing cell metrics: %+v", v.Cells)
		}
	}
	if d := int64(obs.CacheMisses.Value() - missesBefore); d != 1 {
		t.Fatalf("simulations run = %d, want exactly 1 (N=%d concurrent submissions)", d, clients)
	}

	// All clients hold the same content address; two raw fetches of it
	// must be byte-identical.
	addr := views[0].Cells[0].ResultKey
	get := func() []byte {
		resp, err := http.Get(c.Base() + "/v1/results/" + addr)
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET result status %d", resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	if b1, b2 := get(), get(); !bytes.Equal(b1, b2) {
		t.Fatal("result record not byte-identical across fetches")
	}
}

// TestServerRestartServesFromDisk simulates a daemon restart: the
// in-memory result cache is flushed, a second server opens the same
// store directory, and resubmitting the descriptor completes without
// running any simulation — the record is read from disk.
func TestServerRestartServesFromDisk(t *testing.T) {
	experiments.FlushResultCache()
	dir := t.TempDir()
	desc := descriptorJSON("restart-e2e", 62_000)

	_, c1, stop1 := newTestDaemon(t, dir, serve.ServerConfig{})
	v, err := c1.Submit(context.Background(), desc, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c1.Wait(context.Background(), v.ID)
	if err != nil || final.State != serve.JobDone {
		t.Fatalf("first run: %+v err=%v", final, err)
	}
	wantIPC := final.Cells[0].IPC
	addr := final.Cells[0].ResultKey
	code, wantRecord := getResult(t, c1, addr)
	if code != http.StatusOK {
		t.Fatalf("first daemon GET /v1/results/%s = %d: %s", addr, code, wantRecord)
	}
	stop1()

	// "Restart": fresh process state — empty memo cache, new server,
	// same disk.
	experiments.FlushResultCache()
	_, c2, stop2 := newTestDaemon(t, dir, serve.ServerConfig{})
	defer stop2()
	missesBefore := obs.CacheMisses.Value()
	hitsBefore := obs.StoreHits.Value()
	v2, err := c2.Submit(context.Background(), desc, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	final2, err := c2.Wait(context.Background(), v2.ID)
	if err != nil || final2.State != serve.JobDone {
		t.Fatalf("second run: %+v err=%v", final2, err)
	}
	if d := int64(obs.CacheMisses.Value() - missesBefore); d != 0 {
		t.Fatalf("restart resimulated %d cells, want 0", d)
	}
	if d := int64(obs.StoreHits.Value() - hitsBefore); d != 1 {
		t.Fatalf("store hits delta = %d, want 1", d)
	}
	if final2.Cells[0].IPC != wantIPC {
		t.Fatalf("restarted IPC %v != original %v", final2.Cells[0].IPC, wantIPC)
	}
	// The restarted daemon serves the record byte-for-byte as the first
	// one did, and an address nothing was stored under is a 404.
	if code, got := getResult(t, c2, addr); code != http.StatusOK || !bytes.Equal(got, wantRecord) {
		t.Fatalf("restarted GET /v1/results/%s = %d, body differs from the first daemon's:\n%s\nwant:\n%s",
			addr, code, got, wantRecord)
	}
	if code, _ := getResult(t, c2, serve.ResultAddr("workload=none|mech=none")); code != http.StatusNotFound {
		t.Fatalf("unknown result address = %d, want 404", code)
	}
}

// getResult fetches GET /v1/results/{addr} and returns the status code
// and raw body.
func getResult(t *testing.T, c *client.Client, addr string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(c.Base() + "/v1/results/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServerSSELifecycle checks the event stream shape: queued,
// started, per-cell progress, interval samples, and a terminal done
// event carrying the full job view; and that Last-Event-ID resume
// replays only the tail.
func TestServerSSELifecycle(t *testing.T) {
	experiments.FlushResultCache()
	_, c, stop := newTestDaemon(t, t.TempDir(), serve.ServerConfig{Interval: 2000})
	defer stop()
	v, err := c.Submit(context.Background(), descriptorJSON("sse-e2e", 63_000), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var types []string
	var lastID int64
	final, err := c.Stream(context.Background(), v.ID, 0, func(ev serve.Event) error {
		if ev.ID <= lastID {
			return fmt.Errorf("event IDs not increasing: %d after %d", ev.ID, lastID)
		}
		lastID = ev.ID
		types = append(types, ev.Type)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if final == nil || final.State != serve.JobDone {
		t.Fatalf("terminal view: %+v", final)
	}
	count := map[string]int{}
	for _, ty := range types {
		count[ty]++
	}
	if count["queued"] != 1 || count["started"] != 1 || count["done"] != 1 {
		t.Fatalf("lifecycle events %v", count)
	}
	if count["progress"] < 1 {
		t.Fatalf("no progress events: %v", count)
	}
	if count["sample"] < 1 {
		t.Fatalf("no interval sample events: %v", count)
	}
	if types[len(types)-1] != "done" {
		t.Fatalf("stream did not end with the terminal event: %v", types)
	}

	// Resume after the fact from mid-stream: only the tail replays, and
	// the terminal event still arrives.
	resumeAfter := lastID - 1
	var resumed []serve.Event
	if _, err := c.Stream(context.Background(), v.ID, resumeAfter, func(ev serve.Event) error {
		resumed = append(resumed, ev)
		return nil
	}); err != nil {
		t.Fatalf("resume stream: %v", err)
	}
	if len(resumed) != 1 || resumed[0].ID != lastID || resumed[0].Type != "done" {
		t.Fatalf("resume replayed %d events (want just the terminal): %+v", len(resumed), resumed)
	}
}

// TestServerValidation400 checks the structured error body: one field
// entry per problem, and the unknown-mechanism reason lists what is
// registered.
func TestServerValidation400(t *testing.T) {
	_, c, stop := newTestDaemon(t, "", serve.ServerConfig{})
	defer stop()
	bad := []byte(`{
		"name": "bad",
		"workloads": ["mysql", "no-such-workload"],
		"instructions": 1000,
		"configs": [{"label": "x", "mechanism": "no-such-mechanism"}, {"mechanism": "baseline"}]
	}`)
	_, err := c.Submit(context.Background(), bad, client.SubmitOptions{})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("err = %v (%T), want *client.APIError", err, err)
	}
	if apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", apiErr.StatusCode)
	}
	byField := map[string]string{}
	for _, f := range apiErr.Body.Fields {
		byField[f.Field] = f.Reason
	}
	if len(byField) < 3 {
		t.Fatalf("fields = %v, want workloads[1], configs[0].mechanism and configs[1].label", byField)
	}
	reason, ok := byField["configs[0].mechanism"]
	if !ok {
		t.Fatalf("no configs[0].mechanism entry in %v", byField)
	}
	if !bytes.Contains([]byte(reason), []byte("baseline")) {
		t.Fatalf("unknown-mechanism reason does not list the known mechanisms: %q", reason)
	}
	if _, ok := byField["workloads[1]"]; !ok {
		t.Fatalf("no workloads[1] entry in %v", byField)
	}

	// Unparseable JSON is also a structured 400.
	_, err = c.Submit(context.Background(), []byte(`{"name": `), client.SubmitOptions{})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON err = %v", err)
	}
}

// TestServerQueueFullAndCancel exercises admission control and live
// cancellation against the real engine: a long-running job occupies the
// single worker, the bounded queue fills, the next submission gets 429
// with Retry-After, and canceling the running job interrupts the
// simulation promptly.
func TestServerQueueFullAndCancel(t *testing.T) {
	experiments.FlushResultCache()
	_, c, stop := newTestDaemon(t, t.TempDir(), serve.ServerConfig{Workers: 1, MaxQueue: 1})
	defer stop()

	// Far more instructions than the test will ever simulate.
	big, err := c.Submit(context.Background(), descriptorJSON("big-e2e", 500_000_000), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit big: %v", err)
	}
	waitJobState(t, c, big.ID, serve.JobRunning)

	if _, err := c.Submit(context.Background(), descriptorJSON("filler-e2e", 64_000), client.SubmitOptions{}); err != nil {
		t.Fatalf("submit filler: %v", err)
	}
	_, err = c.Submit(context.Background(), descriptorJSON("overflow-e2e", 65_000), client.SubmitOptions{})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow err = %v, want 429", err)
	}

	// Cancel the big job; cooperative machine cancellation must unwind
	// it long before its 500M instructions complete.
	if err := c.Cancel(context.Background(), big.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	ctx, cancelWait := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelWait()
	final, err := c.Wait(ctx, big.ID)
	if err != nil {
		t.Fatalf("wait canceled job: %v", err)
	}
	if final.State != serve.JobCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
}

// TestServerDrainPersistsActiveJob is the SIGTERM acceptance path:
// drain begins while a job is running; readiness flips to 503, the job
// completes, and its result is on disk.
func TestServerDrainPersistsActiveJob(t *testing.T) {
	experiments.FlushResultCache()
	dir := t.TempDir()
	srv, c, stop := newTestDaemon(t, dir, serve.ServerConfig{})
	defer stop()
	v, err := c.Submit(context.Background(), descriptorJSON("drain-e2e", 66_000), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJobState(t, c, v.ID, serve.JobRunning)

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := c.Ready(context.Background()); err == nil {
		t.Fatal("readyz still 200 after drain")
	}
	final, err := c.Job(context.Background(), v.ID)
	if err != nil || final.State != serve.JobDone {
		t.Fatalf("drained job: state=%s err=%v", final.State, err)
	}
	// The result survived to disk: a brand-new store over the same dir
	// (empty LRU) can read the record.
	st, err := serve.OpenStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := st.LoadAddr(final.Cells[0].ResultKey); !ok || err != nil {
		t.Fatalf("result not persisted: ok=%v err=%v", ok, err)
	}
	// And new submissions are refused while draining.
	_, err = c.Submit(context.Background(), descriptorJSON("late-e2e", 67_000), client.SubmitOptions{})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit err = %v, want 503", err)
	}
}

func TestServerHealthAndMechanisms(t *testing.T) {
	_, c, stop := newTestDaemon(t, "", serve.ServerConfig{})
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	resp, err := http.Get(c.Base() + "/v1/mechanisms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Mechanisms []struct {
			Name string `json:"name"`
			Doc  string `json:"doc"`
		} `json:"mechanisms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range body.Mechanisms {
		names[m.Name] = true
	}
	for _, want := range []string{"baseline", "udp"} {
		if !names[want] {
			t.Fatalf("mechanism list missing %q: %v", want, names)
		}
	}
	// A memory-only daemon has no result store to serve from.
	if code, body := getResult(t, c, serve.ResultAddr("workload=mysql|mech=baseline")); code != http.StatusNotFound {
		t.Fatalf("memory-only GET /v1/results = %d, want 404: %s", code, body)
	}
}

func waitJobState(t *testing.T, c *client.Client, id string, want serve.JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("polling job: %v", err)
		}
		if v.State == want {
			return
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state %s, want %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerEventsCursorValidation is the regression test for the SSE
// resume cursor: unparseable Last-Event-ID / after values must 400
// with a JSON error before any stream bytes, and negative values clamp
// to a full replay.
func TestServerEventsCursorValidation(t *testing.T) {
	_, c, stop := newTestDaemon(t, "", serve.ServerConfig{Workers: 1})
	defer stop()
	v, err := c.Submit(context.Background(), descriptorJSON("events-cursor", 63_301), client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), v.ID); err != nil {
		t.Fatal(err)
	}
	events := c.Base() + "/v1/jobs/" + v.ID + "/events"

	expect400 := func(req *http.Request, wantIn string) {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (body %q)", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json (no SSE bytes before the 400)", ct)
		}
		if !bytes.Contains(body, []byte(wantIn)) {
			t.Fatalf("error body %q does not name the offending input %q", body, wantIn)
		}
	}
	req, _ := http.NewRequest("GET", events+"?after=banana", nil)
	expect400(req, "after parameter")
	req, _ = http.NewRequest("GET", events, nil)
	req.Header.Set("Last-Event-ID", "12x")
	expect400(req, "Last-Event-ID header")

	// A negative cursor clamps to 0: full replay from "queued" through
	// the terminal event, after which the handler closes the stream.
	resp, err := http.Get(events + "?after=-5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("negative cursor status = %d, want 200", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, ev := range []string{"event: queued", "event: started", "event: done"} {
		if !bytes.Contains(body, []byte(ev)) {
			t.Fatalf("full replay missing %q:\n%s", ev, body)
		}
	}
}
