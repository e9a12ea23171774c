package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace ID lengths %d, %d; want 32", len(a), len(b))
	}
	if a == b {
		t.Fatalf("two trace IDs collided: %s", a)
	}
	for _, c := range a {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("non-hex char %q in trace ID %s", c, a)
		}
	}
}

func TestSpanRecorderRing(t *testing.T) {
	r := NewSpanRecorder(3)
	base := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		r.Record(Span{Name: string(rune('a' + i)), Start: base.Add(time.Duration(i) * time.Second)})
	}
	got := r.Spans()
	if len(got) != 3 {
		t.Fatalf("ring kept %d spans, want 3", len(got))
	}
	// Oldest-first: the two earliest spans were evicted.
	for i, want := range []string{"c", "d", "e"} {
		if got[i].Name != want {
			t.Fatalf("span[%d] = %q, want %q", i, got[i].Name, want)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", r.Dropped())
	}

	var nilRec *SpanRecorder
	nilRec.Record(Span{Name: "x"}) // must not panic
	if nilRec.Spans() != nil || nilRec.Dropped() != 0 {
		t.Fatal("nil recorder should be inert")
	}
}

func TestSpanDurationUS(t *testing.T) {
	s := Span{Start: time.Unix(0, 0), End: time.Unix(0, 2500)}
	if got := s.DurationUS(); got != 2 {
		t.Fatalf("DurationUS = %d, want 2", got)
	}
	backwards := Span{Start: time.Unix(10, 0), End: time.Unix(5, 0)}
	if got := backwards.DurationUS(); got != 0 {
		t.Fatalf("negative span DurationUS = %d, want 0", got)
	}
}

// TestWriteChromeSpans checks the Perfetto export: one pid per trace
// with a process_name record, overlapping spans on distinct tid lanes,
// sequential spans reusing a lane, and µs timestamps relative to the
// earliest span.
func TestWriteChromeSpans(t *testing.T) {
	base := time.Unix(2000, 0)
	at := func(startMS, endMS int) (time.Time, time.Time) {
		return base.Add(time.Duration(startMS) * time.Millisecond),
			base.Add(time.Duration(endMS) * time.Millisecond)
	}
	mk := func(trace, name string, startMS, endMS int) Span {
		s, e := at(startMS, endMS)
		return Span{Trace: trace, Name: name, Start: s, End: e}
	}
	spans := []Span{
		mk("t1", "queue-wait", 0, 10),
		mk("t1", "warmup", 10, 20),  // sequential: may share the lane
		mk("t1", "measure", 15, 30), // overlaps warmup: needs its own lane
		mk("t2", "queue-wait", 5, 8),
	}

	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spans); err != nil {
		t.Fatalf("WriteChromeSpans: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    uint64         `json:"ts"`
			Dur   uint64         `json:"dur"`
			PID   int            `json:"pid"`
			TID   uint64         `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}

	pids := map[string]int{} // trace name -> pid, from process_name records
	byName := map[string]int{}
	for i, ev := range out.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name != "process_name" {
				t.Fatalf("unexpected metadata record %q", ev.Name)
			}
			pids[ev.Args["name"].(string)] = ev.PID
		case "X":
			byName[ev.Name+"/"+strconv.Itoa(ev.PID)] = i
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 process_name records (one per trace), got %v", pids)
	}
	if pids["trace t1"] == pids["trace t2"] {
		t.Fatal("traces t1 and t2 share a pid")
	}

	find := func(name string, pid int) (ts, dur, tid uint64) {
		i, ok := byName[name+"/"+strconv.Itoa(pid)]
		if !ok {
			t.Fatalf("span %q pid %d missing from export", name, pid)
		}
		ev := out.TraceEvents[i]
		return ev.TS, ev.Dur, ev.TID
	}
	p1 := pids["trace t1"]
	qwTS, qwDur, qwTID := find("queue-wait", p1)
	if qwTS != 0 || qwDur != 10_000 {
		t.Fatalf("queue-wait ts=%d dur=%d, want 0 and 10000 µs", qwTS, qwDur)
	}
	_, _, wuTID := find("warmup", p1)
	_, _, msTID := find("measure", p1)
	if wuTID != qwTID {
		t.Fatalf("sequential spans should reuse lane: warmup tid %d, queue-wait tid %d", wuTID, qwTID)
	}
	if msTID == wuTID {
		t.Fatal("overlapping spans packed onto the same lane")
	}
	if clock := out.Metadata["clock"]; clock != "wall-us-since-first-span" {
		t.Fatalf("metadata clock = %v", clock)
	}

	// Empty input still renders a valid (empty) trace document.
	buf.Reset()
	if err := WriteChromeSpans(&buf, nil); err != nil {
		t.Fatalf("empty WriteChromeSpans: %v", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty export invalid JSON: %v", err)
	}
}
