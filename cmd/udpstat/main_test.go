package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"udpsim/internal/obs"
	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
)

// jobOrder returns the job IDs of a rendered job table, top to bottom.
func jobOrder(table string) []string {
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(table), "\n")[1:] {
		ids = append(ids, strings.Fields(line)[0])
	}
	return ids
}

// TestJobTableOrdersByTime pins the table order: active jobs by
// admission sequence, then finished jobs most recent first. The
// timestamps are RFC 3339 with trimmed fractional seconds, whose
// string order disagrees with time order within one second.
func TestJobTableOrdersByTime(t *testing.T) {
	jobs := []serve.JobView{
		{ID: "done-05", State: serve.JobDone, Seq: 1, Finished: "2026-01-01T00:00:05Z"},
		{ID: "done-05.12", State: serve.JobDone, Seq: 2, Finished: "2026-01-01T00:00:05.12Z"},
		{ID: "done-05.1", State: serve.JobFailed, Seq: 3, Finished: "2026-01-01T00:00:05.1Z"},
		{ID: "run-4", State: serve.JobRunning, Seq: 4, Created: "2026-01-01T00:00:06.1Z"},
		{ID: "queued-5", State: serve.JobQueued, Seq: 5, Created: "2026-01-01T00:00:06.12Z"},
		{ID: "queued-6", State: serve.JobQueued, Seq: 6, Created: "2026-01-01T00:00:06Z"},
	}
	want := []string{"run-4", "queued-5", "queued-6", "done-05.12", "done-05.1", "done-05"}
	if got := jobOrder(jobTable(jobs, 10)); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("job order = %v, want %v", got, want)
	}
	if got := jobOrder(jobTable(jobs, 4)); strings.Join(got, " ") != strings.Join(want[:4], " ") {
		t.Fatalf("job order with -jobs 4 = %v, want %v", got, want[:4])
	}
	if got := jobOrder(jobTable(jobs, 2)); strings.Join(got, " ") != strings.Join(want[:2], " ") {
		t.Fatalf("job order with -jobs 2 = %v, want %v", got, want[:2])
	}
}

// TestParseFlagsJobs checks that -jobs accepts zero and positive
// counts and rejects a negative one at parse time.
func TestParseFlagsJobs(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil || o.jobsMax != 8 || o.addr != "http://127.0.0.1:8091" {
		t.Fatalf("defaults = %+v, %v", o, err)
	}
	for _, v := range []string{"0", "3"} {
		if _, err := parseFlags([]string{"-jobs", v}, io.Discard); err != nil {
			t.Errorf("-jobs %s rejected: %v", v, err)
		}
	}
	for _, v := range []string{"-1", "x"} {
		if _, err := parseFlags([]string{"-jobs", v}, io.Discard); err == nil {
			t.Errorf("-jobs %s accepted", v)
		}
	}
	if got := jobTable([]serve.JobView{{ID: "j", State: serve.JobDone}}, 0); len(jobOrder(got)) != 0 {
		t.Errorf("-jobs 0 listed rows:\n%s", got)
	}
}

// TestCounterLinesSeriesExist scrapes the process-wide registry the
// daemon serves at /metrics and checks that every series counterLines
// reads is exposed: a missing one would render as a silent 0.
func TestCounterLinesSeriesExist(t *testing.T) {
	var text bytes.Buffer
	if err := obs.Metrics.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	samples, err := client.ParseMetrics(&text)
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	counterLines(func(name string) float64 {
		read++
		v, ok := client.MetricValue(samples, name, nil)
		if !ok {
			t.Errorf("counterLines reads %q, which /metrics does not expose", name)
		}
		return v
	})
	if read == 0 {
		t.Fatal("counterLines read no series")
	}
}
