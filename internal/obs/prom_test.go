package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// lines splits an exposition into trimmed non-empty lines.
func expositionLines(t *testing.T, r *PromRegistry) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	var out []string
	for _, l := range strings.Split(b.String(), "\n") {
		if l = strings.TrimRight(l, " "); l != "" {
			out = append(out, l)
		}
	}
	return out
}

func hasLine(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}

func TestPromCounterGaugeExposition(t *testing.T) {
	r := NewPromRegistry()
	c := r.Counter("test_requests_total", "requests served")
	g := r.Gauge("test_queue_depth", "jobs queued")
	idle := r.Counter("test_idle_total", "never incremented")

	c.Inc()
	c.Add(2)
	c.Add(-5) // counters ignore negative deltas
	g.Set(7)
	g.Add(-3)

	lines := expositionLines(t, r)
	for _, want := range []string{
		"# HELP test_requests_total requests served",
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		"# TYPE test_queue_depth gauge",
		"test_queue_depth 4",
		"test_idle_total 0", // label-less metrics expose 0 before first use
	} {
		if !hasLine(lines, want) {
			t.Errorf("exposition missing line %q\ngot:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	if c.Value() != 3 || g.Value() != 4 {
		t.Fatalf("Value() = %v, %v; want 3, 4", c.Value(), g.Value())
	}
	_ = idle

	// HELP must precede TYPE must precede the sample, per family.
	order := map[string]int{}
	for i, l := range lines {
		if strings.Contains(l, "test_requests_total") {
			switch {
			case strings.HasPrefix(l, "# HELP"):
				order["help"] = i
			case strings.HasPrefix(l, "# TYPE"):
				order["type"] = i
			default:
				order["sample"] = i
			}
		}
	}
	if !(order["help"] < order["type"] && order["type"] < order["sample"]) {
		t.Fatalf("HELP/TYPE/sample out of order: %v", order)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	r := NewPromRegistry()
	v := r.CounterVec("test_labeled_total", "label escaping", "path")
	v.Inc("a\\b\"c\nd")

	lines := expositionLines(t, r)
	want := `test_labeled_total{path="a\\b\"c\nd"} 1`
	if !hasLine(lines, want) {
		t.Fatalf("exposition missing escaped line %q\ngot:\n%s", want, strings.Join(lines, "\n"))
	}
}

func TestPromHistogramExposition(t *testing.T) {
	r := NewPromRegistry()
	h := r.Histogram("test_latency_us", "latency", []uint64{2, 4, 8, 16})
	for _, v := range []uint64{1, 3, 17} { // 17 lands in the overflow bucket
		h.Observe(v)
	}

	lines := expositionLines(t, r)
	for _, want := range []string{
		"# TYPE test_latency_us histogram",
		`test_latency_us_bucket{le="2"} 1`,
		`test_latency_us_bucket{le="4"} 2`,
		`test_latency_us_bucket{le="8"} 2`,
		`test_latency_us_bucket{le="16"} 2`,
		`test_latency_us_bucket{le="+Inf"} 3`,
		"test_latency_us_sum 21",
		"test_latency_us_count 3",
	} {
		if !hasLine(lines, want) {
			t.Errorf("exposition missing line %q\ngot:\n%s", want, strings.Join(lines, "\n"))
		}
	}

	// Cumulative buckets must be monotonically non-decreasing and end
	// with +Inf == _count.
	var prev int64 = -1
	var inf, count int64 = -1, -2
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, `test_latency_us_bucket{le="+Inf"}`):
			inf = lastField(t, l)
		case strings.HasPrefix(l, "test_latency_us_bucket"):
			v := lastField(t, l)
			if v < prev {
				t.Fatalf("bucket counts not monotone: %d after %d in %q", v, prev, l)
			}
			prev = v
		case strings.HasPrefix(l, "test_latency_us_count"):
			count = lastField(t, l)
		}
	}
	if inf != count {
		t.Fatalf("+Inf bucket %d != _count %d", inf, count)
	}
}

// lastField parses the sample value (last whitespace-separated field).
func lastField(t *testing.T, line string) int64 {
	t.Helper()
	fields := strings.Fields(line)
	v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return v
}

func TestPromHistogramVec(t *testing.T) {
	r := NewPromRegistry()
	h := r.HistogramVec("test_run_us", "run time", []uint64{10, 100}, "mechanism")
	h.Observe(5, "udp")
	h.Observe(50, "udp")
	h.Observe(5, "baseline")

	lines := expositionLines(t, r)
	for _, want := range []string{
		`test_run_us_bucket{mechanism="udp",le="10"} 1`,
		`test_run_us_bucket{mechanism="udp",le="+Inf"} 2`,
		`test_run_us_count{mechanism="udp"} 2`,
		`test_run_us_count{mechanism="baseline"} 1`,
	} {
		if !hasLine(lines, want) {
			t.Errorf("exposition missing line %q\ngot:\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

func TestPromRegistrationPanics(t *testing.T) {
	r := NewPromRegistry()
	r.Counter("test_dup_total", "first")
	mustPanic(t, "duplicate name", func() { r.Counter("test_dup_total", "second") })
	mustPanic(t, "invalid name", func() { r.Counter("9starts_with_digit", "bad") })
	mustPanic(t, "invalid label", func() { r.CounterVec("test_ok_total", "x", "bad-label") })
	v := r.CounterVec("test_vec_total", "x", "a", "b")
	mustPanic(t, "wrong label arity", func() { v.Inc("only-one") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestMetricsCounterSeries pins the engine, store and queue series
// that CI and perfbench scrape: each appears exactly once on
// the process-wide registry with its type (counters, except the queue
// depth gauge), and no family is emitted twice.
func TestMetricsCounterSeries(t *testing.T) {
	want := map[string]string{
		"udpsim_cache_hits":           "counter",
		"udpsim_cache_misses":         "counter",
		"udpsim_cache_inflight_waits": "counter",
		"udpsim_jobs_total":           "counter",
		"udpsim_jobs_done":            "counter",
		"udpsim_store_hits":           "counter",
		"udpsim_store_misses":         "counter",
		"udpsim_store_writes":         "counter",
		"udpsim_store_errors":         "counter",
		"udpsim_store_quarantined":    "counter",
		"udpsimd_jobs_submitted":      "counter",
		"udpsimd_jobs_deduped":        "counter",
		"udpsimd_jobs_rejected":       "counter",
		"udpsimd_jobs_completed":      "counter",
		"udpsimd_jobs_failed":         "counter",
		"udpsimd_jobs_canceled":       "counter",
		"udpsimd_queue_depth":         "gauge",
	}
	types := map[string]string{}
	samples := map[string]int{}
	for _, l := range expositionLines(t, Metrics) {
		if f := strings.Fields(l); strings.HasPrefix(l, "# TYPE ") {
			if _, dup := types[f[2]]; dup {
				t.Errorf("family %q emitted twice", f[2])
			}
			types[f[2]] = f[3]
		} else if !strings.HasPrefix(l, "#") {
			samples[f[0]]++
		}
	}
	for name, typ := range want {
		if types[name] != typ {
			t.Errorf("%s: # TYPE %q, want %q", name, types[name], typ)
		}
		if samples[name] != 1 {
			t.Errorf("%s: %d sample lines, want exactly 1", name, samples[name])
		}
	}
}

func TestLog2Bounds(t *testing.T) {
	if got := Log2Bounds(3); len(got) != 3 || got[0] != 2 || got[2] != 8 {
		t.Fatalf("Log2Bounds(3) = %v", got)
	}
}

func TestSinceUS(t *testing.T) {
	if got := SinceUS(time.Now().Add(-3 * time.Millisecond)); got < 2_000 || got > 1_000_000 {
		t.Fatalf("SinceUS(3ms ago) = %d µs", got)
	}
	if got := SinceUS(time.Now().Add(time.Hour)); got != 0 {
		t.Fatalf("SinceUS(future) = %d, want 0", got)
	}
}
