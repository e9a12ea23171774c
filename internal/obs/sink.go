package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file renders recorded events as Chrome trace-event JSON
// ("{"traceEvents":[...]}"), loadable in Perfetto / chrome://tracing,
// and holds the envelope that WriteChromeSpans shares. Cycles are
// mapped 1:1 onto the format's microsecond timestamps, so 1 "µs" in the
// viewer is one simulated cycle.
//
// Event mapping into the Chrome format:
//
//   - EvPrefetchArrived becomes a complete ("X") slice from the emit
//     cycle to the fill cycle on a per-line-address track, making fill
//     latency visible as slice length.
//   - EvPrefetchHit with a non-zero wait becomes a complete slice of
//     the demand stall.
//   - EvFTQResize and EvUFTQWindow become counter ("C") tracks (FTQ
//     depth over time; utility/timeliness per-mille over time) — the
//     Fig. 8 convergence picture.
//   - Everything else becomes an instant ("i") event.

// chromeEvent is one trace-event record. Only the fields the viewers
// actually read are emitted.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the trace-event envelope both Chrome exporters fill.
type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// newChromeTrace starts an envelope whose timestamps read in clock,
// with room for n events.
func newChromeTrace(clock string, n int) *chromeTrace {
	return &chromeTrace{
		TraceEvents: make([]chromeEvent, 0, n),
		Metadata:    map[string]any{"clock": clock},
	}
}

// process names pid's group of tracks in the viewer.
func (t *chromeTrace) process(pid int, name string) {
	t.TraceEvents = append(t.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
}

func (t *chromeTrace) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(t)
}

// TraceRegion is one machine's worth of events plus its identifying
// tags; each region becomes a pid in the Chrome trace so parallel
// simpoint regions stay separable in the viewer.
type TraceRegion struct {
	Workload  string
	Mechanism string
	Region    int
	Events    []Event
}

// WriteChromeTrace renders regions as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, regions []TraceRegion) error {
	trace := newChromeTrace("simulated-cycles-as-us", 256)
	for i, r := range regions {
		pid := i + 1
		trace.process(pid, fmt.Sprintf("%s/%s region %d", r.Workload, r.Mechanism, r.Region))
		for _, e := range r.Events {
			trace.TraceEvents = append(trace.TraceEvents, chromeFromEvent(pid, e))
		}
	}
	return trace.write(w)
}

// chromeFromEvent maps one typed event onto a trace-event record.
func chromeFromEvent(pid int, e Event) chromeEvent {
	switch e.Kind {
	case EvPrefetchArrived:
		// Complete slice from emit to fill; tid by line address so
		// overlapping fills land on distinct tracks.
		start := e.A
		if start > e.Cycle {
			start = e.Cycle
		}
		return chromeEvent{
			Name: "prefetch-fill", Phase: "X", TS: start, Dur: e.Cycle - start,
			PID: pid, TID: 1 + e.Addr%64,
			Args: map[string]any{"line": fmt.Sprintf("%#x", e.Addr), "merged": e.B == 1},
		}
	case EvPrefetchHit:
		if e.A > 0 {
			return chromeEvent{
				Name: "demand-wait", Phase: "X", TS: e.Cycle - e.A, Dur: e.A,
				PID: pid, TID: 1 + e.Addr%64,
				Args: map[string]any{"line": fmt.Sprintf("%#x", e.Addr), "fill_buffer": e.B == 1},
			}
		}
		return chromeEvent{
			Name: "prefetch-hit", Phase: "i", TS: e.Cycle, PID: pid, TID: 0, Scope: "t",
			Args: map[string]any{"line": fmt.Sprintf("%#x", e.Addr)},
		}
	case EvFTQResize:
		return chromeEvent{
			Name: "ftq-depth", Phase: "C", TS: e.Cycle, PID: pid,
			Args: map[string]any{"depth": e.B},
		}
	case EvUFTQWindow:
		return chromeEvent{
			Name: "uftq-window", Phase: "C", TS: e.Cycle, PID: pid,
			Args: map[string]any{
				"utility_pm":    e.A,
				"timeliness_pm": e.B,
			},
		}
	default:
		return chromeEvent{
			Name: e.Kind.String(), Phase: "i", TS: e.Cycle, PID: pid, TID: 0, Scope: "t",
			Args: eventArgs(e),
		}
	}
}

func eventArgs(e Event) map[string]any {
	args := map[string]any{}
	if e.Addr != 0 {
		args["addr"] = fmt.Sprintf("%#x", e.Addr)
	}
	if e.A != 0 {
		args["a"] = e.A
	}
	if e.B != 0 {
		args["b"] = e.B
	}
	if len(args) == 0 {
		return nil
	}
	return args
}
