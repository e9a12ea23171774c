package serve

import (
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/sim"
	"udpsim/internal/tune"
)

// Wire types shared by the HTTP server and the Go client. Everything a
// client needs to act on lives here; heavyweight payloads (full
// sim.Result) are fetched separately from the content-addressed result
// endpoint.

// APIError is the JSON body of every non-2xx response. Fields carries
// the structured descriptor-validation problems on 400s, so clients
// can map errors back to the offending descriptor fields without
// parsing prose.
type APIError struct {
	Error  string                   `json:"error"`
	Fields []experiments.FieldError `json:"fields,omitempty"`
}

// CellView is one (workload, config) cell of a job, with its
// content-addressed result key and headline metrics. The full result
// record is at GET /v1/results/{result_key}.
type CellView struct {
	Workload string `json:"workload"`
	Label    string `json:"label"`
	// ResultKey is the content address (hex SHA-256 of the canonical
	// config key) under which the cell's result is stored.
	ResultKey string `json:"result_key"`
	// Headline metrics, present once the job is done.
	IPC        float64 `json:"ipc,omitempty"`
	IcacheMPKI float64 `json:"icache_mpki,omitempty"`
}

// JobView is the JSON representation of a job returned by POST
// /v1/jobs, GET /v1/jobs/{id}, and carried in lifecycle events.
type JobView struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	State       JobState `json:"state"`
	Error       string   `json:"error,omitempty"`
	Priority    int      `json:"priority"`
	Client      string   `json:"client"`
	Submissions int64    `json:"submissions"`
	// TraceID is the job's end-to-end trace: every span the job caused
	// (queue-wait, store I/O, warmup, measure) carries
	// it, and GET /debug/trace renders the connected timeline.
	TraceID string `json:"trace_id,omitempty"`
	// Deduped is set on submission responses when the POST attached to
	// an existing identical job instead of creating one.
	Deduped bool `json:"deduped,omitempty"`
	// Seq is the admission sequence number — the stable order GET
	// /v1/jobs lists and pages jobs in.
	Seq      int64  `json:"seq,omitempty"`
	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Cells lists the job's grid with per-cell result addresses. The
	// addresses are known at submission time (content addressing needs
	// only the descriptor), so clients can poll results directly.
	Cells []CellView `json:"cells,omitempty"`
}

// JobPage is the JSON body of GET /v1/jobs: one page of jobs in
// admission (seq) order. NextAfter, when set, is the cursor for the
// next page (`?after=<NextAfter>`); Total counts every job the daemon
// knows regardless of paging.
type JobPage struct {
	Jobs      []JobView `json:"jobs"`
	NextAfter string    `json:"next_after,omitempty"`
	Total     int       `json:"total"`
}

// TuneBest is the incumbent of a tune run: its winning config and the
// full-fidelity cells behind the objective score.
type TuneBest struct {
	Label string `json:"label"`
	// Config is the human-readable dimension assignment
	// ("mech=udp l2m=32").
	Config string                 `json:"config"`
	Spec   experiments.ConfigSpec `json:"spec"`
	Score  float64                `json:"score"`
	Cells  []CellView             `json:"cells,omitempty"`
}

// TuneView is the JSON representation of a tune run returned by POST
// /v1/tune and GET /v1/tune/{id}, and carried in its lifecycle events.
type TuneView struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	State     JobState `json:"state"`
	Error     string   `json:"error,omitempty"`
	Objective string   `json:"objective"`
	Seed      int64    `json:"seed"`
	// SpaceSize is the unique candidate count of the space (the
	// full-grid simulation count per workload the search avoids).
	SpaceSize uint64 `json:"space_size"`
	// PlannedProbes is the sampling+halving budget the driver will
	// spend exactly (refinement is bounded separately).
	PlannedProbes int    `json:"planned_probes"`
	TraceID       string `json:"trace_id,omitempty"`
	Deduped       bool   `json:"deduped,omitempty"`
	Submissions   int64  `json:"submissions"`
	Created       string `json:"created,omitempty"`
	Started       string `json:"started,omitempty"`
	Finished      string `json:"finished,omitempty"`
	// Stats is present once the run finished.
	Stats *tune.Stats `json:"stats,omitempty"`
	Best  *TuneBest   `json:"best,omitempty"`
}

// StoredResult is the JSON body of GET /v1/results/{key}.
type StoredResult struct {
	// Key is the canonical configuration key the result is cached
	// under (sim.ConfigKey + simpoint count).
	Key string `json:"key"`
	// Addr is its content address (the URL's {key} component).
	Addr   string     `json:"addr"`
	Result sim.Result `json:"result"`
}

// Health is the JSON body of GET /healthz and /readyz.
type Health struct {
	Status     string `json:"status"`
	UptimeSecs int64  `json:"uptime_secs"`
	QueueDepth int    `json:"queue_depth"`
	Draining   bool   `json:"draining,omitempty"`
}

func timeString(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// view renders the job for the API. withCells includes the grid (cell
// result addresses always; metrics when results exist). Callers must
// not hold j.mu.
func (j *Job) view(withCells bool) JobView {
	j.mu.Lock()
	v := JobView{
		ID:          j.ID,
		Name:        j.Name,
		State:       j.state,
		Error:       j.err,
		Priority:    j.Priority,
		Client:      j.Client,
		TraceID:     j.TraceID,
		Seq:         j.seq,
		Submissions: j.submissions,
		Created:     timeString(j.created),
		Started:     timeString(j.started),
		Finished:    timeString(j.finished),
	}
	results := j.results
	j.mu.Unlock()
	if !withCells {
		return v
	}
	d := j.Descriptor
	// Results (when present) are in workload-major descriptor order —
	// the same order the cell list is built in.
	byCell := map[[2]string]experiments.DescriptorResult{}
	for _, r := range results {
		byCell[[2]string{r.Workload, r.Label}] = r
	}
	for _, w := range d.Workloads {
		for _, cs := range d.Configs {
			cv := CellView{
				Workload:  w,
				Label:     cs.Label,
				ResultKey: ResultAddr(experiments.CellKey(d, w, cs)),
			}
			if r, ok := byCell[[2]string{w, cs.Label}]; ok {
				cv.IPC = r.Result.IPC
				cv.IcacheMPKI = r.Result.IcacheMPKI
			}
			v.Cells = append(v.Cells, cv)
		}
	}
	return v
}
