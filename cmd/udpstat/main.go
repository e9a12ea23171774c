// Command udpstat is the operator's terminal view of a running
// udpsimd: it scrapes GET /metrics and GET /v1/jobs and renders queue
// depth, job/cache/store counters with hit rates, latency percentiles
// (queue wait, run duration by mechanism, store and HTTP latency) and
// the currently active jobs.
//
// Examples:
//
//	udpstat -addr http://127.0.0.1:8091            one-shot snapshot
//	udpstat -addr http://127.0.0.1:8091 -watch 2s  live view, redrawn every 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
)

// options are udpstat's parsed flags.
type options struct {
	addr    string
	watch   time.Duration
	timeout time.Duration
	jobsMax int
}

// parseFlags parses the command line; a negative -jobs is a parse
// error, like any malformed value.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := options{jobsMax: 8}
	fs := flag.NewFlagSet("udpstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "http://127.0.0.1:8091", "udpsimd base URL")
	fs.DurationVar(&o.watch, "watch", 0, "redraw interval (0 = print once and exit)")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-request timeout")
	fs.Func("jobs", "max active/recent jobs listed (default 8)", func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("want a non-negative count, got %q", v)
		}
		o.jobsMax = n
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	c := client.New(o.addr, nil)
	c.Name = "udpstat"
	c.Timeout = o.timeout

	for {
		out, err := snapshot(context.Background(), c, o.jobsMax)
		if err != nil {
			fmt.Fprintf(os.Stderr, "udpstat: %v\n", err)
			if o.watch == 0 {
				os.Exit(1)
			}
		} else {
			if o.watch > 0 {
				fmt.Print("\033[H\033[2J") // clear + home, live view
			}
			fmt.Print(out)
		}
		if o.watch == 0 {
			return
		}
		time.Sleep(o.watch)
	}
}

// snapshot renders one full status screen.
func snapshot(ctx context.Context, c *client.Client, jobsMax int) (string, error) {
	health, err := c.Health(ctx)
	if err != nil {
		return "", fmt.Errorf("health: %w", err)
	}
	samples, err := c.Metrics(ctx)
	if err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "udpsimd %s  up %s  status=%s  queue=%d  in-flight-http=%.0f\n",
		c.Base(), (time.Duration(health.UptimeSecs) * time.Second).String(),
		health.Status, health.QueueDepth, sampleVal(samples, "udpsimd_http_in_flight_requests"))
	b.WriteString(counterLines(func(name string) float64 { return sampleVal(samples, name) }))
	b.WriteString(latencyTable(samples))
	b.WriteString(jobTable(jobs, jobsMax))
	return b.String(), nil
}

func sampleVal(samples []client.MetricSample, name string) float64 {
	v, _ := client.MetricValue(samples, name, nil)
	return v
}

func hitRate(hits, misses float64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*hits/(hits+misses))
}

// counterLines renders the jobs / cache / store counter rows, reading
// each series through val.
func counterLines(val func(name string) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs: submitted=%.0f done=%.0f failed=%.0f canceled=%.0f deduped=%.0f rejected=%.0f\n",
		val("udpsimd_jobs_submitted"), val("udpsimd_jobs_completed"),
		val("udpsimd_jobs_failed"), val("udpsimd_jobs_canceled"),
		val("udpsimd_jobs_deduped"), val("udpsimd_jobs_rejected"))

	fmt.Fprintf(&b, "cache: hit %s (hits=%.0f misses=%.0f waits=%.0f)   store: hit %s (hits=%.0f misses=%.0f writes=%.0f errors=%.0f cached=%s)\n",
		hitRate(val("udpsim_cache_hits"), val("udpsim_cache_misses")),
		val("udpsim_cache_hits"), val("udpsim_cache_misses"), val("udpsim_cache_inflight_waits"),
		hitRate(val("udpsim_store_hits"), val("udpsim_store_misses")),
		val("udpsim_store_hits"), val("udpsim_store_misses"),
		val("udpsim_store_writes"), val("udpsim_store_errors"),
		fmtBytes(val("udpsim_store_cache_bytes")))

	return b.String()
}

// fmtBytes renders a byte quantity human-readably.
func fmtBytes(n float64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", n)
	}
}

// fmtUS renders a microsecond quantity human-readably.
func fmtUS(us float64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// latencyTable renders p50/p99 for the service histograms, including
// one row per mechanism of the run-duration family and one per route
// of the HTTP family.
func latencyTable(samples []client.MetricSample) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "latency\tp50\tp99\tcount")
	row := func(label, name string, labels map[string]string) {
		p50, ok := client.HistogramPercentile(samples, name, labels, 0.50)
		if !ok {
			return
		}
		p99, _ := client.HistogramPercentile(samples, name, labels, 0.99)
		count, _ := client.MetricValue(samples, name+"_count", labels)
		fmt.Fprintf(tw, "%s\t≤%s\t≤%s\t%.0f\n", label, fmtUS(p50), fmtUS(p99), count)
	}
	row("queue-wait", "udpsimd_queue_wait_us", nil)
	for _, mech := range labelValues(samples, "udpsimd_run_duration_us_bucket", "mechanism") {
		row("run "+mech, "udpsimd_run_duration_us", map[string]string{"mechanism": mech})
	}
	row("store-read", "udpsim_store_read_us", nil)
	row("store-write", "udpsim_store_write_us", nil)
	for _, route := range labelValues(samples, "udpsimd_http_request_duration_us_bucket", "route") {
		row("http "+route, "udpsimd_http_request_duration_us", map[string]string{"route": route})
	}
	tw.Flush()
	return b.String()
}

// labelValues collects the distinct values of one label across a
// sample family, sorted.
func labelValues(samples []client.MetricSample, name, label string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		if v := s.Labels[label]; v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// jobTable lists running and queued jobs first, in admission order,
// then the most recently finished terminal ones, up to max rows.
// Timestamps are compared as times: RFC 3339 strings with trimmed
// fractional seconds do not sort lexically.
func jobTable(jobs []serve.JobView, max int) string {
	if len(jobs) == 0 {
		return "no jobs\n"
	}
	active := make([]serve.JobView, 0, len(jobs))
	var finished []serve.JobView
	for _, j := range jobs {
		if j.State.Terminal() {
			finished = append(finished, j)
		} else {
			active = append(active, j)
		}
	}
	sort.Slice(active, func(i, k int) bool { return active[i].Seq < active[k].Seq })
	sort.SliceStable(finished, func(i, k int) bool {
		return parseTime(finished[i].Finished).After(parseTime(finished[k].Finished))
	})
	rows := active
	if len(rows) < max {
		n := max - len(rows)
		if n > len(finished) {
			n = len(finished)
		}
		rows = append(rows, finished[:n]...)
	} else {
		rows = rows[:max]
	}

	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\tname\tstate\tclient\tage\ttrace")
	for _, j := range rows {
		age := "-"
		if t, err := time.Parse(time.RFC3339Nano, j.Created); err == nil {
			age = time.Since(t).Round(time.Second).String()
		}
		trace := j.TraceID
		if len(trace) > 12 {
			trace = trace[:12]
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			shorten(j.ID, 12), shorten(j.Name, 24), j.State, shorten(j.Client, 16), age, trace)
	}
	tw.Flush()
	return b.String()
}

// parseTime reads a JobView timestamp; a missing or malformed one is
// the zero time.
func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

func shorten(s string, n int) string {
	if s == "" {
		return "-"
	}
	if len(s) > n {
		return s[:n-1] + "…"
	}
	return s
}
