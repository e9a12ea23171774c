package obs

// prom.go is the service-grade metric surface: a dependency-free typed
// metric registry (counters, gauges, histograms backed by
// stats.Histogram) with Prometheus text-format exposition. The daemon
// mounts it at GET /metrics; ServeDebug registers it on the default
// mux next to /debug/pprof. It is the process's only counter surface:
// engine-cache, store and queue counters live here next to the
// service histograms.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"udpsim/internal/stats"
)

// PromRegistry is a set of named metric families rendered in
// Prometheus text exposition format. All methods are safe for
// concurrent use; registration panics on duplicate or malformed names
// (programmer error, caught at package init).
type PromRegistry struct {
	mu     sync.Mutex
	byName map[string]*promFamily
}

// NewPromRegistry builds an empty registry (tests build isolated
// registries).
func NewPromRegistry() *PromRegistry {
	return &PromRegistry{byName: map[string]*promFamily{}}
}

// Metrics is the process-wide registry: every metric handle below
// registers here.
var Metrics = NewPromRegistry()

// promFamily is one named metric: a fixed label-key set and one series
// per label-value combination.
type promFamily struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []uint64 // histogram families only

	mu     sync.Mutex
	series map[string]*promSeries // key = \xff-joined label values
	order  []string               // series keys in first-use order
}

type promSeries struct {
	labelVals []string
	val       float64          // counter/gauge value
	hist      *stats.Histogram // histogram series only
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *PromRegistry) register(name, help, typ string, labels []string) *promFamily {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	f := &promFamily{name: name, help: help, typ: typ, labels: labels,
		series: map[string]*promSeries{}}
	r.byName[name] = f
	return f
}

// get returns (creating if needed) the series for the label values.
// Caller must pass exactly len(f.labels) values.
func (f *promFamily) get(labelVals []string) *promSeries {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &promSeries{labelVals: append([]string(nil), labelVals...)}
		if f.typ == "histogram" {
			s.hist = stats.NewHistogram(f.bounds)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// PromCounter is a monotonically increasing metric.
type PromCounter struct{ f *promFamily }

// Counter registers a label-less counter.
func (r *PromRegistry) Counter(name, help string) *PromCounter {
	f := r.register(name, help, "counter", nil)
	f.get(nil) // counters expose 0 before the first increment
	return &PromCounter{f: f}
}

// Inc adds one.
func (c *PromCounter) Inc() { c.Add(1) }

// Add increments by n (negative deltas are ignored — counters only go
// up).
func (c *PromCounter) Add(n float64) {
	if n < 0 {
		return
	}
	s := c.f.get(nil)
	c.f.mu.Lock()
	s.val += n
	c.f.mu.Unlock()
}

// Value returns the current count.
func (c *PromCounter) Value() float64 {
	s := c.f.get(nil)
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return s.val
}

// PromCounterVec is a counter family with labels.
type PromCounterVec struct{ f *promFamily }

// CounterVec registers a counter with label keys.
func (r *PromRegistry) CounterVec(name, help string, labels ...string) *PromCounterVec {
	return &PromCounterVec{f: r.register(name, help, "counter", labels)}
}

// Add increments the series selected by the label values.
func (v *PromCounterVec) Add(n float64, labelVals ...string) {
	if n < 0 {
		return
	}
	s := v.f.get(labelVals)
	v.f.mu.Lock()
	s.val += n
	v.f.mu.Unlock()
}

// Inc adds one to the series selected by the label values.
func (v *PromCounterVec) Inc(labelVals ...string) { v.Add(1, labelVals...) }

// PromGauge is a settable instantaneous value.
type PromGauge struct{ f *promFamily }

// Gauge registers a label-less gauge.
func (r *PromRegistry) Gauge(name, help string) *PromGauge {
	f := r.register(name, help, "gauge", nil)
	f.get(nil)
	return &PromGauge{f: f}
}

// Set assigns the gauge.
func (g *PromGauge) Set(n float64) {
	s := g.f.get(nil)
	g.f.mu.Lock()
	s.val = n
	g.f.mu.Unlock()
}

// Add moves the gauge by delta (may be negative).
func (g *PromGauge) Add(delta float64) {
	s := g.f.get(nil)
	g.f.mu.Lock()
	s.val += delta
	g.f.mu.Unlock()
}

// Value returns the current gauge reading.
func (g *PromGauge) Value() float64 {
	s := g.f.get(nil)
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return s.val
}

// PromHistogram is a fixed-bucket distribution (stats.Histogram
// underneath, so log2 and explicit-bucket shapes come for free).
type PromHistogram struct{ f *promFamily }

// Histogram registers a label-less histogram over explicit ascending
// inclusive upper bounds (use Log2Bounds for latency shapes).
func (r *PromRegistry) Histogram(name, help string, bounds []uint64) *PromHistogram {
	f := r.register(name, help, "histogram", nil)
	f.bounds = append([]uint64(nil), bounds...)
	f.get(nil)
	return &PromHistogram{f: f}
}

// Observe records one sample.
func (h *PromHistogram) Observe(v uint64) {
	s := h.f.get(nil)
	h.f.mu.Lock()
	s.hist.Observe(v)
	h.f.mu.Unlock()
}

// PromHistogramVec is a histogram family with labels.
type PromHistogramVec struct{ f *promFamily }

// HistogramVec registers a labeled histogram.
func (r *PromRegistry) HistogramVec(name, help string, bounds []uint64, labels ...string) *PromHistogramVec {
	f := r.register(name, help, "histogram", labels)
	f.bounds = append([]uint64(nil), bounds...)
	return &PromHistogramVec{f: f}
}

// Observe records one sample in the series selected by the label
// values.
func (v *PromHistogramVec) Observe(val uint64, labelVals ...string) {
	s := v.f.get(labelVals)
	v.f.mu.Lock()
	s.hist.Observe(val)
	v.f.mu.Unlock()
}

// Log2Bounds returns power-of-two bucket bounds 1, 2, 4, … 2^maxPow —
// the latency-histogram shape shared with the cycle-level obs layer.
func Log2Bounds(maxPow uint) []uint64 {
	bounds := make([]uint64, maxPow)
	for i := range bounds {
		bounds[i] = 1 << uint(i+1)
	}
	return bounds
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders {k="v",...} for the series, with extra appended
// last (the histogram "le" label).
func labelString(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(vals[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value without exponent noise for
// integral values.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders the registry: families sorted by name, series in
// first-use order.
func (r *PromRegistry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*promFamily, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, f := range fams {
		f.mu.Lock()
		pr("# HELP %s %s\n", f.name, escapeHelp(f.help))
		pr("# TYPE %s %s\n", f.name, f.typ)
		for _, key := range f.order {
			s := f.series[key]
			if f.typ != "histogram" {
				pr("%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatValue(s.val))
				continue
			}
			// Cumulative buckets over the full fixed bound set (stable
			// series across scrapes), then +Inf, _sum, _count.
			counts := s.hist.Counts()
			var cum uint64
			for i, bound := range f.bounds {
				cum += counts[i]
				pr("%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelVals, "le", fmt.Sprintf("%d", bound)), cum)
			}
			cum += counts[len(f.bounds)] // overflow bucket
			pr("%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, "le", "+Inf"), cum)
			pr("%s_sum%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.hist.Sum())
			pr("%s_count%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.hist.Count())
		}
		f.mu.Unlock()
	}
	return err
}

// Handler serves the exposition (GET /metrics).
func (r *PromRegistry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// Metric handles. They live on the process-wide registry so the
// queue, the HTTP layer, the engine and the store can observe without
// plumbing a registry through every constructor. Durations are
// microseconds in log2 buckets (2^36 µs ≈ 19 h caps the longest runs).
var (
	// Engine result-cache traffic: hits are identical grid cells
	// deduplicated across figures, misses are actual simulations,
	// inflight waits are joins onto an in-flight identical run.
	CacheHits = Metrics.Counter("udpsim_cache_hits",
		"engine result-cache hits (cells served without simulating)")
	CacheMisses = Metrics.Counter("udpsim_cache_misses",
		"engine result-cache misses (cells actually simulated)")
	CacheInflightWaits = Metrics.Counter("udpsim_cache_inflight_waits",
		"engine lookups that joined an in-flight identical run")
	// JobsTotal / JobsDone track grid-cell progress of experiment runs.
	JobsTotal = Metrics.Counter("udpsim_jobs_total",
		"grid cells submitted to the experiment engine")
	JobsDone = Metrics.Counter("udpsim_jobs_done",
		"grid cells the experiment engine finalized")

	// Persistent result-store traffic (the disk-backed store the engine
	// cache reads through when one is set; see
	// experiments.Options.Store). StoreHits are in-memory misses served
	// from disk without simulating; StoreMisses are probes that fell
	// through to a real simulation; StoreWrites are successful
	// write-backs; StoreErrors are store I/O failures (treated as
	// misses); StoreQuarantined counts corrupt records moved aside
	// instead of being served.
	StoreHits = Metrics.Counter("udpsim_store_hits",
		"result-store probes served from disk without simulating")
	StoreMisses = Metrics.Counter("udpsim_store_misses",
		"result-store probes that fell through to a simulation")
	StoreWrites = Metrics.Counter("udpsim_store_writes",
		"successful result-store write-backs")
	StoreErrors = Metrics.Counter("udpsim_store_errors",
		"result-store I/O failures (treated as misses)")
	StoreQuarantined = Metrics.Counter("udpsim_store_quarantined",
		"corrupt result-store records moved aside instead of served")

	// Daemon (udpsimd) job-queue counters. Submitted includes
	// submissions deduplicated onto an existing job; deduped counts
	// submissions that attached to an already-queued, running or
	// completed identical job (cross-client singleflight); rejected
	// counts admission-control refusals (queue full → HTTP 429,
	// draining → 503).
	DaemonJobsSubmitted = Metrics.Counter("udpsimd_jobs_submitted",
		"accepted job submissions, deduplicated ones included")
	DaemonJobsDeduped = Metrics.Counter("udpsimd_jobs_deduped",
		"submissions attached to an existing identical job")
	DaemonJobsRejected = Metrics.Counter("udpsimd_jobs_rejected",
		"submissions refused by admission control (queue full or draining)")
	DaemonJobsCompleted = Metrics.Counter("udpsimd_jobs_completed",
		"jobs finished done")
	DaemonJobsFailed = Metrics.Counter("udpsimd_jobs_failed",
		"jobs finished failed")
	DaemonJobsCanceled = Metrics.Counter("udpsimd_jobs_canceled",
		"jobs finished canceled (by a client, a timeout or a drain)")
	// DaemonQueueDepth is the instantaneous number of queued (not yet
	// running) jobs.
	DaemonQueueDepth = Metrics.Gauge("udpsimd_queue_depth",
		"jobs queued and not yet running")

	// HTTPInFlight counts requests currently being served.
	HTTPInFlight = Metrics.Gauge("udpsimd_http_in_flight_requests",
		"HTTP requests currently in flight")
	// HTTPPanics counts handler panics converted to HTTP 500s.
	HTTPPanics = Metrics.Counter("udpsimd_http_panics_total",
		"handler panics recovered into HTTP 500 responses")
	// HTTPRequests counts completed requests by route/method/status.
	HTTPRequests = Metrics.CounterVec("udpsimd_http_requests_total",
		"completed HTTP requests", "route", "method", "code")
	// HTTPDurationUS is per-route request latency in microseconds.
	HTTPDurationUS = Metrics.HistogramVec("udpsimd_http_request_duration_us",
		"HTTP request latency in microseconds by route", Log2Bounds(36), "route")
	// QueueWaitUS is how long jobs sat queued before starting.
	QueueWaitUS = Metrics.Histogram("udpsimd_queue_wait_us",
		"job queue wait (submit to start) in microseconds", Log2Bounds(36))
	// RunDurationUS is per-mechanism measured-region run time.
	RunDurationUS = Metrics.HistogramVec("udpsimd_run_duration_us",
		"measured-region simulation wall time in microseconds by mechanism",
		Log2Bounds(36), "mechanism")
	// StoreReadUS / StoreWriteUS are persistent-store operation
	// latencies (probe and write-back respectively).
	StoreReadUS = Metrics.Histogram("udpsim_store_read_us",
		"persistent result-store read latency in microseconds", Log2Bounds(30))
	StoreWriteUS = Metrics.Histogram("udpsim_store_write_us",
		"persistent result-store write latency in microseconds", Log2Bounds(30))
	// StoreCacheBytes / StoreCacheCapacityBytes size the store's
	// in-memory LRU read layer (population and configured cap).
	StoreCacheBytes = Metrics.Gauge("udpsim_store_cache_bytes",
		"bytes held by the result store's in-memory LRU read layer")
	StoreCacheCapacityBytes = Metrics.Gauge("udpsim_store_cache_capacity_bytes",
		"configured byte capacity of the result store's LRU read layer")

	// Tune-driver counters: /v1/tune search runs, their candidate
	// probes, how many probes the content-addressed result store
	// answered without a new simulation, and incumbent improvements.
	TuneRuns = Metrics.Counter("udpsimd_tune_runs",
		"tune searches started (deduplicated resubmissions excluded)")
	TuneProbes = Metrics.Counter("udpsimd_tune_probes",
		"candidate evaluations made by tune search drivers")
	TuneCacheProbeHits = Metrics.Counter("udpsimd_tune_cache_probe_hits",
		"tune probes answered entirely from the result store with zero new simulations")
	TuneIncumbentUpdates = Metrics.Counter("udpsimd_tune_incumbent_updates",
		"tune incumbent improvements across all runs")
)

// SinceUS returns the elapsed time since start in whole microseconds —
// the unit every *_us histogram above observes.
func SinceUS(start time.Time) uint64 {
	d := time.Since(start)
	if d < 0 {
		return 0
	}
	return uint64(d.Microseconds())
}
