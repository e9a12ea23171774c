// Package obs is the simulator's cycle-level observability layer: a
// bounded ring buffer of typed events (prefetch lifecycle, FTQ resize
// decisions, UDP utility updates, resteers and recoveries) with
// pluggable sinks (Chrome trace-event JSON for Perfetto, JSONL), an
// interval sampler producing IPC/MPKI/FTQ-depth time series, and a
// prefetch lifecycle tracker that turns the paper's Fig. 4 timeliness
// *ratio* into diagnosable cycle-accurate *distributions*.
//
// The layer is strictly opt-in: the frontend, the core mechanisms and
// the sim driver hold a nil *Observer by default and guard every hook
// behind a nil check, so the disabled path costs one predictable branch
// and zero allocations (guarded by BenchmarkSimObsOverhead).
package obs

import "fmt"

// EventKind is a typed trace event class.
type EventKind uint8

// Event kinds. The Addr/A/B fields of Event are kind-specific; see the
// Observer hook methods for their encoding.
const (
	// EvPrefetchEmitted: a prefetch fill was issued. Addr=line, A=1 if
	// off-path.
	EvPrefetchEmitted EventKind = iota
	// EvPrefetchArrived: a prefetch fill completed and was installed.
	// Addr=line, A=emit cycle (duration = Cycle−A), B=1 if a demand
	// access had already merged into it (the prefetch was late).
	EvPrefetchArrived
	// EvPrefetchHit: a demand fetch consumed a prefetched line.
	// Addr=line, A=cycles the demand had to wait (0 = timely icache
	// hit), B=1 for a fill-buffer (untimely) hit.
	EvPrefetchHit
	// EvPrefetchEvicted: a prefetched line was evicted without ever
	// being demanded (useless prefetch). Addr=line, A=1 if off-path.
	EvPrefetchEvicted
	// EvFTQResize: the tuner changed the logical FTQ capacity.
	// A=old depth, B=new depth.
	EvFTQResize
	// EvUFTQWindow: a UFTQ measurement window closed. Addr=current
	// depth, A=utility ratio in per-mille, B=timeliness ratio in
	// per-mille.
	EvUFTQWindow
	// EvUDPLearn: UDP's useful-set learned a line. Addr=line.
	EvUDPLearn
	// EvUDPDrop: UDP filtered out an assumed-off-path candidate.
	// Addr=line.
	EvUDPDrop
	// EvResteer: decode-time post-fetch correction redirected fetch.
	EvResteer
	// EvRecovery: execute-time misprediction recovery. A=resolution
	// latency in cycles (divergence→recovery).
	EvRecovery
	// EvFillComplete: a cache-level fill completed and the line became
	// visible. Addr=line, A=level code (1=L1, 2=L2, 3=LLC), B=1 if the
	// fill was prefetch-initiated.
	EvFillComplete
	// EvMemBackpressure: a memory request was rejected under MSHR
	// pressure. Addr=line, A=level code, B=1 if the rejected request was
	// a prefetch (dropped) rather than a demand (retried).
	EvMemBackpressure

	numEventKinds
)

// String names the event kind (trace sinks and logs).
func (k EventKind) String() string {
	switch k {
	case EvPrefetchEmitted:
		return "prefetch-emitted"
	case EvPrefetchArrived:
		return "prefetch-arrived"
	case EvPrefetchHit:
		return "prefetch-hit"
	case EvPrefetchEvicted:
		return "prefetch-evicted"
	case EvFTQResize:
		return "ftq-resize"
	case EvUFTQWindow:
		return "uftq-window"
	case EvUDPLearn:
		return "udp-learn"
	case EvUDPDrop:
		return "udp-drop"
	case EvResteer:
		return "resteer"
	case EvRecovery:
		return "recovery"
	case EvFillComplete:
		return "fill-complete"
	case EvMemBackpressure:
		return "mem-backpressure"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one typed trace record. It is a fixed-size value (no
// pointers) so the ring buffer is a single flat allocation.
type Event struct {
	Cycle uint64
	Kind  EventKind
	Addr  uint64 // line address for prefetch/UDP events
	A, B  uint64 // kind-specific arguments (see the kind docs)
}

// DefaultTracerCapacity bounds the event ring when the caller does not
// choose one: 1 Mi events ≈ 40 MB, enough for several million simulated
// cycles of a busy frontend.
const DefaultTracerCapacity = 1 << 20

// Tracer is a bounded ring buffer of events. When full it overwrites
// the oldest events (the most recent window is usually the diagnostic
// one) and counts the overwritten records in Dropped.
type Tracer struct {
	events  []Event
	head    int // index of the oldest retained event
	count   int
	dropped uint64
}

// NewTracer builds a tracer retaining up to capacity events
// (DefaultTracerCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{events: make([]Event, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (t *Tracer) Record(e Event) {
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, e)
		t.count++
		return
	}
	// Ring overwrite: head is both the oldest slot and the write slot.
	t.events[t.head] = e
	t.head++
	if t.head == len(t.events) {
		t.head = 0
	}
	t.dropped++
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return t.count }

// Dropped returns how many events were overwritten after the ring
// filled.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Events returns the retained events in record order. The returned
// slice is freshly allocated.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// CountByKind tallies retained events per kind.
func (t *Tracer) CountByKind() map[string]int {
	m := make(map[string]int)
	for _, e := range t.events {
		m[e.Kind.String()]++
	}
	return m
}

// Observer is the hub threaded through the frontend, the core
// mechanisms and the sim driver. Each sub-system is optional: a nil
// Trace disables event recording, a nil Life disables lifecycle
// tracking, Interval == 0 disables time-series sampling. A nil
// *Observer disables everything (the hooks are nil-guarded at every
// call site).
//
// An Observer belongs to exactly one Machine: its methods are invoked
// from the single-threaded cycle loop and must not be shared across
// concurrently running machines. Cross-machine fan-in happens at the
// sink layer (MetricsWriter serializes concurrent writers).
type Observer struct {
	// Trace receives typed events when non-nil.
	Trace *Tracer
	// Life tracks per-prefetch lifecycle timing when non-nil.
	Life *Lifecycle
	// Interval is the sampling period in cycles (0 = no sampling).
	Interval uint64
	// OnSample receives each interval sample (wrap a MetricsWriter's
	// Write to stream them); without it samples are dropped. The
	// callback runs on the simulating goroutine; it must serialize its
	// own sinks.
	OnSample func(IntervalSample)

	// Run tags stamped onto every sample. AttachObserver sets
	// Workload, Mechanism and Salt from the machine; Config is the
	// caller's grid-cell label.
	Workload  string
	Mechanism string
	Config    string
	Salt      uint64

	now uint64
}

// SetNow advances the observer's cycle clock; the sim driver calls it
// once per machine cycle so hooks without a cycle argument (the tuner
// surface) still stamp events correctly.
func (o *Observer) SetNow(cycle uint64) { o.now = cycle }

// Now returns the current cycle clock.
func (o *Observer) Now() uint64 { return o.now }

// AddSample hands one interval sample to OnSample, if set.
func (o *Observer) AddSample(s IntervalSample) {
	if o.OnSample != nil {
		o.OnSample(s)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PrefetchEmitted observes a prefetch fill being issued.
func (o *Observer) PrefetchEmitted(line uint64, offPath bool) {
	if o.Life != nil {
		o.Life.emitted++
	}
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvPrefetchEmitted, Addr: line, A: b2u(offPath)})
	}
}

// PrefetchArrived observes a prefetch-initiated fill completing.
// merged reports that a demand access had already merged into the fill
// (the prefetch was late); such lines are not awaiting a first use.
func (o *Observer) PrefetchArrived(line uint64, emitCycle uint64, offPath, merged bool) {
	if o.Life != nil {
		o.Life.arrived(line, emitCycle, o.now, merged)
	}
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvPrefetchArrived, Addr: line, A: emitCycle, B: b2u(merged)})
	}
}

// PrefetchHit observes a demand fetch consuming a prefetched line.
// wait is how many cycles the demand had to stall (0 = timely icache
// hit); fillBuf marks an in-flight (fill-buffer) hit.
func (o *Observer) PrefetchHit(line uint64, wait uint64, fillBuf bool) {
	if o.Life != nil {
		o.Life.firstUse(line, o.now, wait, fillBuf)
	}
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvPrefetchHit, Addr: line, A: wait, B: b2u(fillBuf)})
	}
}

// PrefetchEvicted observes a never-demanded prefetched line being
// evicted (useless prefetch).
func (o *Observer) PrefetchEvicted(line uint64, offPath bool) {
	if o.Life != nil {
		o.Life.evicted(line)
	}
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvPrefetchEvicted, Addr: line, A: b2u(offPath)})
	}
}

// FTQResize observes the tuner changing the logical FTQ capacity.
func (o *Observer) FTQResize(oldDepth, newDepth int) {
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvFTQResize, A: uint64(oldDepth), B: uint64(newDepth)})
	}
}

// UFTQWindow observes a closed UFTQ measurement window with its
// measured utility and timeliness ratios.
func (o *Observer) UFTQWindow(depth int, utility, timeliness float64) {
	if o.Trace != nil {
		o.Trace.Record(Event{
			Cycle: o.now, Kind: EvUFTQWindow, Addr: uint64(depth),
			A: uint64(utility*1000 + 0.5), B: uint64(timeliness*1000 + 0.5),
		})
	}
}

// UDPLearn observes UDP's useful-set learning a line.
func (o *Observer) UDPLearn(line uint64) {
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvUDPLearn, Addr: line})
	}
}

// UDPDrop observes UDP filtering out an assumed-off-path candidate.
func (o *Observer) UDPDrop(line uint64) {
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvUDPDrop, Addr: line})
	}
}

// Resteer observes a decode-time post-fetch correction.
func (o *Observer) Resteer() {
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvResteer})
	}
}

// Recovery observes an execute-time misprediction recovery with its
// resolution latency.
func (o *Observer) Recovery(latency uint64) {
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvRecovery, A: latency})
	}
}

// FillComplete observes a cache-level fill completing (the line is now
// visible at that level). level is a hierarchy level code (1=L1, 2=L2,
// 3=LLC) kept as a plain integer so obs stays decoupled from the
// memory package.
func (o *Observer) FillComplete(level, line uint64, prefetch bool) {
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvFillComplete, Addr: line, A: level, B: b2u(prefetch)})
	}
}

// MemBackpressure observes a memory request rejected because a level's
// MSHR file was full: demands retry, prefetches are dropped.
func (o *Observer) MemBackpressure(level, line uint64, prefetch bool) {
	if o.Trace != nil {
		o.Trace.Record(Event{Cycle: o.now, Kind: EvMemBackpressure, Addr: line, A: level, B: b2u(prefetch)})
	}
}
