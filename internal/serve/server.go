package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/sim"
)

// ServerConfig sizes the daemon.
type ServerConfig struct {
	// Store is the persistent result store (nil = in-memory only; the
	// /v1/results endpoint then 404s everything).
	Store *Store
	// Workers is the number of jobs run concurrently (default 1).
	Workers int
	// MaxQueue bounds queued jobs (admission control; default 64).
	MaxQueue int
	// JobTimeout caps one job's runtime (0 = unlimited).
	JobTimeout time.Duration
	// Parallelism is per-job grid-cell concurrency (0 = GOMAXPROCS).
	Parallelism int
	// Interval is the obs sampling interval in cycles for the SSE
	// event stream (0 disables "sample" events; default 10000).
	Interval uint64
	// Log receives request/lifecycle logs (nil = discard).
	Log *slog.Logger
}

// Server wires the scheduler, the store and the experiment engine into
// an HTTP surface. Build with NewServer, mount Handler, and call
// Drain on shutdown.
type Server struct {
	cfg       ServerConfig
	log       *slog.Logger
	sched     *Scheduler
	spans     *obs.SpanRecorder
	startedAt time.Time
	ready     atomic.Bool

	// Tune-run registry: content-addressed searches executing on their
	// own goroutines (queue clients, not queue workers).
	tuneMu sync.Mutex
	tunes  map[string]*TuneRun
	tuneWG sync.WaitGroup
}

// NewServer builds a server. Its store rides into the engine per job
// via Options.Store, so several servers in one process keep distinct
// stores. The server starts ready; Drain flips readiness off.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Interval == 0 {
		cfg.Interval = 10_000
	}
	s := &Server{cfg: cfg, log: cfg.Log, startedAt: time.Now(),
		spans: obs.NewSpanRecorder(spanRecorderCapacity),
		tunes: map[string]*TuneRun{}}
	s.sched = NewScheduler(SchedulerConfig{
		Workers:    cfg.Workers,
		MaxQueue:   cfg.MaxQueue,
		JobTimeout: cfg.JobTimeout,
		Run:        s.runJob,
		OnSpan:     s.spans.Record,
		Log:        cfg.Log,
	})
	s.ready.Store(true)
	return s
}

// spanRecorderCapacity bounds the daemon's span ring: at ~6 spans per
// job it holds the last few thousand jobs' worth of timeline.
const spanRecorderCapacity = 16384

// resultStore is the engine's persistent read-through layer: the disk
// store, or a true nil for a memory-only daemon (a nil *Store wrapped
// in the interface would read as a store and panic on first use).
func (s *Server) resultStore() experiments.ResultStore {
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store
}

// Spans returns every recorded lifecycle span oldest-first (tests,
// cmd/udpsimd's -trace-out shutdown export).
func (s *Server) Spans() []obs.Span { return s.spans.Spans() }

// runJob is the scheduler's entry point: it executes one job through
// the engine's memoized, store-backed descriptor runner, forwarding
// per-cell progress and per-interval obs samples to the job's event
// hub (the SSE feed).
func (s *Server) runJob(ctx context.Context, j *Job) ([]experiments.DescriptorResult, error) {
	opts := experiments.Options{
		Context:  ctx,
		Interval: s.cfg.Interval,
		Store:    s.resultStore(),
		OnSample: func(sample obs.IntervalSample) { j.hub.publish("sample", sample) },
		// Stamp the job's trace ID onto each engine span.
		OnSpan: func(sp obs.Span) {
			sp.Trace = j.TraceID
			s.spans.Record(sp)
		},
	}
	progress := func(line string) {
		j.hub.publish("progress", map[string]string{"line": line})
	}
	results, err := experiments.RunDescriptorObserved(j.Descriptor, progress, s.cfg.Parallelism, opts)
	if err == nil {
		s.persistResults(j.Descriptor, results)
	}
	return results, err
}

// persistResults writes a completed job's cells to the store. The
// engine already saves every cell it *simulates*; this covers cells
// served from the process-wide in-memory memo, whose records may
// predate this daemon's store (another in-process server, a run before
// the store was attached). GET /v1/results must be able to serve every
// cell of every job this daemon reported done.
func (s *Server) persistResults(d *experiments.Descriptor, results []experiments.DescriptorResult) {
	st := s.resultStore()
	if st == nil {
		return
	}
	specs := make(map[string]experiments.ConfigSpec, len(d.Configs))
	for _, cs := range d.Configs {
		specs[cs.Label] = cs
	}
	for _, r := range results {
		cs, ok := specs[r.Label]
		if !ok {
			continue
		}
		key := experiments.CellKey(d, r.Workload, cs)
		if _, ok, _ := st.Load(key); ok {
			continue // already persisted (the common, simulated-here case)
		}
		if err := st.Save(key, r.Result); err != nil {
			s.log.Warn("persisting cached cell failed", "key", key, "err", err)
		}
	}
}

// Drain stops admission, cancels queued jobs, lets running jobs finish
// until ctx expires, and flips /readyz to 503 — the SIGTERM path. Tune
// runs are canceled first so their driver goroutines stop submitting
// into the draining queue.
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	s.cancelTunes()
	tunesDone := make(chan struct{})
	go func() { s.tuneWG.Wait(); close(tunesDone) }()
	select {
	case <-tunesDone:
	case <-ctx.Done():
	}
	return s.sched.Drain(ctx)
}

// maxDescriptorBytes bounds POST /v1/jobs bodies.
const maxDescriptorBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs              submit an experiment descriptor
//	GET    /v1/jobs              list jobs (paged: ?limit= and ?after=)
//	GET    /v1/jobs/{id}         job status (cells + result keys)
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/events  SSE stream (progress, samples, terminal)
//	POST   /v1/tune              submit a parameter-space search
//	GET    /v1/tune              list tune runs
//	GET    /v1/tune/{id}         tune-run status (stats + incumbent)
//	DELETE /v1/tune/{id}         cancel a tune run
//	GET    /v1/tune/{id}/events  SSE stream (probes, generations, incumbents)
//	GET    /v1/results/{key}     content-addressed result record
//	GET    /v1/mechanisms        the mechanism table (name + doc)
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 while draining)
//	GET    /metrics              Prometheus text exposition
//	GET    /debug/trace          Chrome trace-event JSON of recorded spans
//
// Every route runs under the observability middleware: structured
// access logs with a request ID, panic-to-500 recovery, per-route
// latency histograms and an in-flight gauge.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Each route carries its own label because Go 1.22's mux cannot
	// report the matched pattern back to middleware.
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("/v1/jobs", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("/v1/jobs/{id}/events", s.handleEvents))
	mux.HandleFunc("POST /v1/tune", s.instrument("/v1/tune", s.handleTuneSubmit))
	mux.HandleFunc("GET /v1/tune", s.instrument("/v1/tune", s.handleTuneList))
	mux.HandleFunc("GET /v1/tune/{id}", s.instrument("/v1/tune/{id}", s.handleTune))
	mux.HandleFunc("DELETE /v1/tune/{id}", s.instrument("/v1/tune/{id}", s.handleTuneCancel))
	mux.HandleFunc("GET /v1/tune/{id}/events", s.instrument("/v1/tune/{id}/events", s.handleTuneEvents))
	mux.HandleFunc("GET /v1/results/{key}", s.instrument("/v1/results/{key}", s.handleResult))
	mux.HandleFunc("GET /v1/mechanisms", s.instrument("/v1/mechanisms", s.handleMechanisms))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", obs.Metrics.Handler().ServeHTTP))
	mux.HandleFunc("GET /debug/trace", s.instrument("/debug/trace", s.handleTrace))
	return mux
}

// handleTrace renders every recorded lifecycle span as Chrome
// trace-event JSON — open the response in Perfetto and a daemon
// session appears as one timeline, one track group per trace ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeSpans(w, s.spans.Spans())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	body := APIError{Error: err.Error()}
	if ve := experiments.AsValidationError(err); ve != nil {
		body.Fields = ve.Fields
	}
	writeJSON(w, code, body)
}

// clientID identifies the submitting client for the fair queue: the
// X-UDPSim-Client header when present, else the remote address.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-UDPSim-Client"); c != "" {
		return c
	}
	return r.RemoteAddr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	d, err := experiments.ParseDescriptor(io.LimitReader(r.Body, maxDescriptorBytes))
	if err != nil {
		// Structured 400: the validation error's field list maps each
		// problem to its descriptor field, and the unknown-mechanism
		// reason lists the known mechanisms.
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Trace workloads are resolved before enqueueing: files load and
	// register once, and the descriptor's sha256 fields are finalized so
	// the job's content-addressed ID — and every cell key — is derived
	// from the trace bytes, not the submitting path.
	if err := experiments.ResolveTraces(d); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	priority := 0
	if p := r.URL.Query().Get("priority"); p != "" {
		priority, err = strconv.Atoi(p)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad priority %q: %w", p, err))
			return
		}
	}
	job, deduped, err := s.sched.SubmitTraced(d, clientID(r), priority, r.Header.Get("X-Trace-ID"))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	v := job.view(true)
	v.Deduped = deduped
	code := http.StatusAccepted
	if job.State().Terminal() {
		code = http.StatusOK // deduped onto an already-finished job
	}
	writeJSON(w, code, v)
}

// handleJobList pages the job registry in admission (seq) order —
// stable across requests, so `?after=<last id>` cursors never skip or
// duplicate entries as new jobs arrive. Without ?limit the whole list
// comes back in one page.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad limit %q: want a positive integer", v))
			return
		}
		limit = n
	}
	jobs := s.sched.JobList()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view(false))
	}
	sort.Slice(views, func(i, k int) bool { return views[i].Seq < views[k].Seq })
	page := JobPage{Total: len(views)}
	if after := r.URL.Query().Get("after"); after != "" {
		idx := -1
		for i, v := range views {
			if v.ID == after {
				idx = i
				break
			}
		}
		if idx < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: unknown after cursor %q", after))
			return
		}
		views = views[idx+1:]
	}
	if limit > 0 && len(views) > limit {
		views = views[:limit]
		page.NextAfter = views[len(views)-1].ID
	}
	page.Jobs = views
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.sched.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	j.Cancel("canceled by client")
	writeJSON(w, http.StatusOK, j.view(false))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	s.streamHub(w, r, j.Events())
}

// streamHub serves one eventHub over SSE: cursor resolution
// (Last-Event-ID header or ?after=), replay, live tail with pings, and
// the history-tail re-read that guarantees the terminal event is
// delivered even when a subscriber buffer overflowed. Shared by job and
// tune-run event streams.
func (s *Server) streamHub(w http.ResponseWriter, r *http.Request, hub *eventHub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	// Resolve the resume cursor before any SSE header goes out: an
	// unparseable value must 400 (silently treating it as 0 would
	// replay the whole stream), and negatives clamp to "from the
	// start" — event IDs begin at 1.
	var afterID int64
	src, v := "Last-Event-ID header", r.Header.Get("Last-Event-ID")
	if v == "" {
		src, v = "after parameter", r.URL.Query().Get("after")
	}
	if v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad %s %q: %w", src, v, err))
			return
		}
		afterID = max(id, 0)
	}
	replay, ch, cancel := hub.subscribe(afterID)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	last := afterID
	writeEv := func(ev Event) bool {
		fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.ID, ev.Data)
		last = ev.ID
		fl.Flush()
		return !ev.IsTerminal()
	}
	for _, ev := range replay {
		if !writeEv(ev) {
			return
		}
	}
	if ch == nil {
		return // stream already closed; replay ended with the terminal event
	}
	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Terminal published (possibly while our buffer was
				// full): replay the tail we missed, which is
				// guaranteed to contain the terminal event.
				for _, ev := range hub.history(last) {
					if !writeEv(ev) {
						return
					}
				}
				return
			}
			if !writeEv(ev) {
				return
			}
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("key")
	if s.cfg.Store == nil {
		writeErr(w, http.StatusNotFound, errors.New("serve: no result store configured"))
		return
	}
	key, res, ok, err := s.cfg.Store.LoadAddr(addr)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no result at %q", addr))
		return
	}
	writeJSON(w, http.StatusOK, StoredResult{Key: key, Addr: addr, Result: res})
}

func (s *Server) handleMechanisms(w http.ResponseWriter, r *http.Request) {
	type mech struct {
		Name string `json:"name"`
		Doc  string `json:"doc"`
	}
	var out []mech
	for _, d := range sim.MechanismDocs() {
		out = append(out, mech{Name: string(d.Name), Doc: d.Doc})
	}
	writeJSON(w, http.StatusOK, map[string]any{"mechanisms": out})
}

func (s *Server) health() Health {
	return Health{
		Status:     "ok",
		UptimeSecs: int64(time.Since(s.startedAt).Seconds()),
		QueueDepth: s.sched.QueueDepth(),
		Draining:   s.sched.Draining(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	if !s.ready.Load() || h.Draining {
		h.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}
