package obs

// span.go is the service-layer half of tracing: where obs.Tracer
// records cycle-timestamped events inside one simulated machine,
// SpanRecorder records wall-clock spans across the daemon's job
// lifecycle (queue-wait, store-read, warmup, measure, store-write).
// Spans carry a trace ID minted at job submission (or propagated from
// the client via X-Trace-ID), so everything one submission caused
// renders as one connected timeline in Perfetto.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// NewTraceID mints a 16-byte random hex trace ID (32 chars, the
// W3C-traceparent width).
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means the platform is broken; fall back to
		// a fixed-prefix counter so tracing degrades instead of panicking.
		return fmt.Sprintf("00000000000000000000%012d", fallbackTraceSeq.next())
	}
	return hex.EncodeToString(b[:])
}

type traceSeq struct {
	mu sync.Mutex
	n  uint64
}

func (s *traceSeq) next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

var fallbackTraceSeq traceSeq

// Span is one named wall-clock interval attributed to a trace.
type Span struct {
	Trace string         `json:"trace"`
	Name  string         `json:"name"`
	Start time.Time      `json:"start"`
	End   time.Time      `json:"end"`
	Args  map[string]any `json:"args,omitempty"`
}

// DurationUS returns the span length in whole microseconds.
func (s Span) DurationUS() uint64 {
	d := s.End.Sub(s.Start)
	if d < 0 {
		return 0
	}
	return uint64(d.Microseconds())
}

// SpanRecorder accumulates spans in a bounded ring (same discipline as
// Tracer: never grows without bound under a long daemon session; the
// oldest spans fall off and Dropped says how many).
type SpanRecorder struct {
	mu      sync.Mutex
	spans   []Span
	head    int
	count   int
	dropped uint64
}

// NewSpanRecorder builds a recorder keeping the last capacity spans.
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &SpanRecorder{spans: make([]Span, capacity)}
}

// Record appends one span. Safe for concurrent use; nil receivers are
// no-ops so callers can hold an optional recorder without guards.
func (r *SpanRecorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < len(r.spans) {
		r.spans[(r.head+r.count)%len(r.spans)] = s
		r.count++
		return
	}
	r.spans[r.head] = s
	r.head = (r.head + 1) % len(r.spans)
	r.dropped++
}

// Spans returns the recorded spans oldest-first.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.spans[(r.head+i)%len(r.spans)]
	}
	return out
}

// Dropped returns how many spans the ring has evicted.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// WriteChromeSpans renders spans as Chrome trace-event JSON: one pid
// per trace (first-seen order) with a process_name metadata record
// naming the trace ID, spans as complete ("X") slices on greedily
// packed tid lanes (a lane is reused once its previous span has
// ended, so non-overlapping spans share a row and concurrent ones
// stack). Timestamps are microseconds since the earliest span start —
// wall clock, unlike WriteChromeTrace's cycle clock.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	trace := newChromeTrace("wall-us-since-first-span", len(spans)+8)
	if len(spans) == 0 {
		return trace.write(w)
	}

	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	epoch := sorted[0].Start

	type lanes struct {
		pid  int
		ends []time.Time // per-lane latest end
	}
	byTrace := map[string]*lanes{}
	for _, s := range sorted {
		tr, ok := byTrace[s.Trace]
		if !ok {
			tr = &lanes{pid: len(byTrace) + 1}
			byTrace[s.Trace] = tr
			name := s.Trace
			if name == "" {
				name = "(no trace)"
			}
			trace.process(tr.pid, "trace "+name)
		}
		lane := -1
		for i, end := range tr.ends {
			if !end.After(s.Start) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(tr.ends)
			tr.ends = append(tr.ends, time.Time{})
		}
		end := s.End
		if end.Before(s.Start) {
			end = s.Start
		}
		tr.ends[lane] = end
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    uint64(s.Start.Sub(epoch).Microseconds()),
			Dur:   s.DurationUS(),
			PID:   tr.pid,
			TID:   uint64(lane),
			Args:  s.Args,
		})
	}
	return trace.write(w)
}
