package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteChromeTraceRoundTrip checks that the Chrome trace sink
// produces JSON that round-trips through encoding/json with the
// structure Perfetto expects: a traceEvents array whose records carry
// name/ph/ts/pid, a process_name metadata record per region, complete
// ("X") slices for fills and demand waits, and counter ("C") tracks for
// FTQ depth.
func TestWriteChromeTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: EvPrefetchEmitted, Addr: 0x1000},
		{Cycle: 60, Kind: EvPrefetchArrived, Addr: 0x1000, A: 10},
		{Cycle: 90, Kind: EvPrefetchHit, Addr: 0x1000},               // timely: instant
		{Cycle: 120, Kind: EvPrefetchHit, Addr: 0x2000, A: 15, B: 1}, // late: slice
		{Cycle: 130, Kind: EvFTQResize, A: 32, B: 48},
		{Cycle: 140, Kind: EvUFTQWindow, Addr: 48, A: 900, B: 850},
		{Cycle: 150, Kind: EvRecovery, A: 17},
	}
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []TraceRegion{
		{Workload: "mysql", Mechanism: "udp", Region: 0, Events: events},
		{Workload: "mysql", Mechanism: "udp", Region: 1, Events: events[:1]},
	})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace does not round-trip json.Unmarshal: %v", err)
	}
	// 2 process_name metadata records + 7 + 1 events.
	if got, want := len(trace.TraceEvents), 10; got != want {
		t.Fatalf("traceEvents = %d records, want %d", got, want)
	}

	byName := map[string][]map[string]any{}
	pids := map[float64]bool{}
	for _, e := range trace.TraceEvents {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("record missing name/ph: %v", e)
		}
		byName[name] = append(byName[name], e)
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Errorf("expected 2 distinct pids (one per region), got %v", pids)
	}
	if got := len(byName["process_name"]); got != 2 {
		t.Errorf("process_name records = %d, want 2", got)
	}

	// Fill slice: ts = emit cycle, dur = fill latency.
	fills := byName["prefetch-fill"]
	if len(fills) != 1 {
		t.Fatalf("prefetch-fill records = %d, want 1", len(fills))
	}
	if f := fills[0]; f["ph"] != "X" || f["ts"].(float64) != 10 || f["dur"].(float64) != 50 {
		t.Errorf("prefetch-fill = %v, want ph=X ts=10 dur=50", f)
	}
	// Late hit becomes a demand-wait slice from cycle-wait to cycle.
	waits := byName["demand-wait"]
	if len(waits) != 1 || waits[0]["ph"] != "X" || waits[0]["ts"].(float64) != 105 || waits[0]["dur"].(float64) != 15 {
		t.Errorf("demand-wait = %v, want ph=X ts=105 dur=15", waits)
	}
	// Timely hit is an instant event.
	if hits := byName["prefetch-hit"]; len(hits) != 1 || hits[0]["ph"] != "i" {
		t.Errorf("prefetch-hit = %v, want one instant event", hits)
	}
	// FTQ resize and UFTQ window are counter tracks.
	if c := byName["ftq-depth"]; len(c) != 1 || c[0]["ph"] != "C" {
		t.Errorf("ftq-depth = %v, want one counter event", c)
	}
	if c := byName["uftq-window"]; len(c) != 1 || c[0]["ph"] != "C" {
		t.Errorf("uftq-window = %v, want one counter event", c)
	}
}
