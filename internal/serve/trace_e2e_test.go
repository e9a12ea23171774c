package serve_test

// End-to-end tracing tests: one submitted job must produce ONE
// connected trace — a single trace ID stringing together the
// queue-wait, store-read, warmup, measure and store-write spans — and
// the /debug/trace endpoint must render it as loadable Chrome
// trace-event JSON. Two jobs queued behind each other keep distinct
// traces.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
)

// spansForTrace filters a server's span ring down to one trace.
func spansForTrace(srv *serve.Server, trace string) []obs.Span {
	var out []obs.Span
	for _, sp := range srv.Spans() {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}

func spanNames(spans []obs.Span) map[string]int {
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	return names
}

func TestServerJobTraceEndToEnd(t *testing.T) {
	experiments.FlushResultCache()
	srv, c, stop := newTestDaemon(t, t.TempDir(), serve.ServerConfig{Workers: 1})
	defer stop()

	traceID := obs.NewTraceID()
	v, err := c.Submit(context.Background(), descriptorJSON("trace-e2e", 64_100),
		client.SubmitOptions{TraceID: traceID})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.TraceID != traceID {
		t.Fatalf("job view trace %q, want the propagated X-Trace-ID %q", v.TraceID, traceID)
	}
	final, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != serve.JobDone {
		t.Fatalf("job state %s (err %q), want done", final.State, final.Error)
	}
	// The SSE terminal event carries the trace too (final came off the
	// stream, not a poll).
	if final.TraceID != traceID {
		t.Fatalf("terminal SSE view trace %q, want %q", final.TraceID, traceID)
	}

	// ONE connected trace: every lifecycle span of this job carries the
	// submitted trace ID, and at least the five canonical span names
	// are present (store spans exist because the daemon has a store).
	spans := spansForTrace(srv, traceID)
	names := spanNames(spans)
	for _, want := range []string{"queue-wait", "store-read", "warmup", "measure", "store-write"} {
		if names[want] == 0 {
			t.Errorf("trace %s missing span %q (got %v)", traceID, want, names)
		}
	}
	if len(names) < 5 {
		t.Fatalf("trace %s has %d distinct span names, want >= 5: %v", traceID, len(names), names)
	}

	// Spans are causally ordered wall-clock intervals: the queue wait
	// ends before the measured region starts, and every span has
	// End >= Start.
	var queueEnd, measureStart time.Time
	for _, sp := range spans {
		if sp.End.Before(sp.Start) {
			t.Errorf("span %q ends before it starts: %v > %v", sp.Name, sp.Start, sp.End)
		}
		switch sp.Name {
		case "queue-wait":
			queueEnd = sp.End
		case "measure":
			measureStart = sp.Start
		}
	}
	if measureStart.Before(queueEnd) {
		t.Fatalf("measure (%v) started before queue-wait ended (%v)", measureStart, queueEnd)
	}

	// /debug/trace renders the ring as Chrome trace JSON: a process
	// named after our trace with >= 5 slice events.
	resp, err := http.Get(c.Base() + "/debug/trace")
	if err != nil {
		t.Fatalf("GET /debug/trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace status %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&chrome); err != nil {
		t.Fatalf("/debug/trace is not valid Chrome trace JSON: %v", err)
	}
	pid := -1
	for _, ev := range chrome.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" && ev.Args["name"] == "trace "+traceID {
			pid = ev.PID
			break
		}
	}
	if pid < 0 {
		t.Fatalf("/debug/trace has no process for trace %s", traceID)
	}
	slices := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Phase == "X" && ev.PID == pid {
			slices++
		}
	}
	if slices < 5 {
		t.Fatalf("/debug/trace shows %d slices for the trace, want >= 5", slices)
	}

	// And the scrape side: the run moved the service histograms.
	samples, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	for _, name := range []string{
		"udpsimd_queue_wait_us_count",
		"udpsim_store_write_us_count",
	} {
		if v, ok := client.MetricValue(samples, name, nil); !ok || v < 1 {
			t.Errorf("metric %s = %v (present %v), want >= 1", name, v, ok)
		}
	}
	if v, ok := client.MetricValue(samples, "udpsimd_run_duration_us_count",
		map[string]string{"mechanism": "baseline"}); !ok || v < 1 {
		t.Errorf("run-duration histogram for baseline = %v (present %v), want >= 1", v, ok)
	}
	if _, ok := client.MetricValue(samples, "udpsimd_http_requests_total",
		map[string]string{"route": "/v1/jobs", "method": "POST"}); !ok {
		t.Error("HTTP request counter missing the POST /v1/jobs series")
	}
}

// TestServerConcurrentJobTraces queues two distinct jobs on a
// one-worker daemon and checks that each keeps its own trace ID end to
// end, with its own queue-wait and measure spans.
func TestServerConcurrentJobTraces(t *testing.T) {
	experiments.FlushResultCache()
	srv, c, stop := newTestDaemon(t, "", serve.ServerConfig{Workers: 1})
	defer stop()

	var jobs []serve.JobView
	for i, instrs := range []uint64{64_201, 64_301} {
		v, err := c.Submit(context.Background(), descriptorJSON(fmt.Sprintf("trace-%d", i), instrs), client.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, v)
	}
	if a, b := jobs[0].TraceID, jobs[1].TraceID; a == "" || a == b {
		t.Fatalf("jobs should mint distinct traces, got %q and %q", a, b)
	}
	for _, j := range jobs {
		v, err := c.Wait(context.Background(), j.ID)
		if err != nil || v.State != serve.JobDone {
			t.Fatalf("job %s: wait err %v, want done", j.ID, err)
		}
		names := spanNames(spansForTrace(srv, j.TraceID))
		if names["queue-wait"] != 1 || names["measure"] == 0 {
			t.Errorf("trace %s spans %v, want one queue-wait and a measure", j.TraceID, names)
		}
	}
}
