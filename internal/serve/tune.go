package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
	"udpsim/internal/tune"
)

// This file is the autotuning service: POST /v1/tune runs the
// internal/tune search driver on the daemon, with candidate probes
// submitted through the ordinary job queue (exploration at
// PriorityLow, refinement at PriorityHigh) and the content-addressed
// result store consulted before every probe — re-probing a known cell
// costs zero simulations. Tune runs are content-addressed like jobs
// (hash of space + objective + seed), so identical tune requests dedup
// onto one running search, and each run streams frontier updates over
// the same SSE machinery jobs use.

// TuneRun is one tune search executing (or finished) on the daemon.
type TuneRun struct {
	ID      string
	Space   *tune.Space
	TraceID string
	Client  string

	hub    *eventHub
	done   chan struct{}
	cancel context.CancelFunc

	mu          sync.Mutex
	state       JobState
	err         string
	submissions int64
	created     time.Time
	started     time.Time
	finished    time.Time
	result      *tune.Result
}

// Done is closed when the run reaches a terminal state.
func (t *TuneRun) Done() <-chan struct{} { return t.done }

// State returns the run's lifecycle phase.
func (t *TuneRun) State() JobState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Events exposes the run's event hub for SSE subscriptions.
func (t *TuneRun) Events() *eventHub { return t.hub }

// Cancel requests cancellation of a running search.
func (t *TuneRun) Cancel() { t.cancel() }

// view renders the run for the API.
func (t *TuneRun) view() TuneView {
	t.mu.Lock()
	v := TuneView{
		ID:            t.ID,
		Name:          t.Space.Name,
		State:         t.state,
		Error:         t.err,
		Objective:     t.Space.Objective,
		Seed:          t.Space.Seed,
		SpaceSize:     t.Space.SpaceSize(),
		PlannedProbes: t.Space.PlannedProbes(),
		TraceID:       t.TraceID,
		Submissions:   t.submissions,
		Created:       timeString(t.created),
		Started:       timeString(t.started),
		Finished:      timeString(t.finished),
	}
	res := t.result
	t.mu.Unlock()
	if res == nil {
		return v
	}
	stats := res.Stats
	v.Stats = &stats
	best := &TuneBest{
		Label:  res.Best.Label,
		Config: res.Best.Config,
		Spec:   res.Best.Spec,
		Score:  res.Best.Score,
	}
	// The incumbent's full-fidelity cells, addressed like job cells so
	// clients fetch the winning records from GET /v1/results/{key}.
	if keys, err := t.Space.CellKeys(res.Best.Spec, t.Space.FullFidelity()); err == nil {
		byW := map[string]experiments.DescriptorResult{}
		for _, r := range res.Best.Results {
			byW[r.Workload] = r
		}
		for i, w := range t.Space.Workloads {
			cv := CellView{Workload: w, Label: res.Best.Label, ResultKey: ResultAddr(keys[i])}
			if r, ok := byW[w]; ok {
				cv.IPC = r.Result.IPC
				cv.IcacheMPKI = r.Result.IcacheMPKI
			}
			best.Cells = append(best.Cells, cv)
		}
	}
	v.Best = best
	return v
}

// finish moves the run to a terminal state exactly once and publishes
// the terminal event.
func (t *TuneRun) finish(state JobState, res *tune.Result, errMsg string) {
	t.mu.Lock()
	if t.state.Terminal() {
		t.mu.Unlock()
		return
	}
	t.state = state
	t.result = res
	t.err = errMsg
	t.finished = time.Now()
	t.mu.Unlock()
	t.hub.publish(string(state), t.view())
	close(t.done)
}

// tuneRun looks up a run by ID.
func (s *Server) tuneRun(id string) (*TuneRun, bool) {
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	t, ok := s.tunes[id]
	return t, ok
}

// cancelTunes cancels every live tune run (the drain path).
func (s *Server) cancelTunes() {
	s.tuneMu.Lock()
	runs := make([]*TuneRun, 0, len(s.tunes))
	for _, t := range s.tunes {
		runs = append(runs, t)
	}
	s.tuneMu.Unlock()
	for _, t := range runs {
		t.cancel()
	}
}

// handleTuneSubmit is POST /v1/tune: validate the space, dedup on the
// content-addressed run ID, and start the search in the background.
func (s *Server) handleTuneSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := tune.ParseSpace(io.LimitReader(r.Body, maxDescriptorBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id := tune.RunID(sp)
	s.tuneMu.Lock()
	if existing, ok := s.tunes[id]; ok {
		existing.mu.Lock()
		existing.submissions++
		existing.mu.Unlock()
		s.tuneMu.Unlock()
		v := existing.view()
		v.Deduped = true
		code := http.StatusAccepted
		if existing.State().Terminal() {
			code = http.StatusOK
		}
		writeJSON(w, code, v)
		return
	}
	if s.sched.Draining() {
		s.tuneMu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	traceID := r.Header.Get("X-Trace-ID")
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &TuneRun{
		ID:      id,
		Space:   sp,
		TraceID: traceID,
		Client:  clientID(r),
		hub:     newEventHub(),
		done:    make(chan struct{}),
		cancel:  cancel,
		state:   JobQueued,
		created: time.Now(),
	}
	run.submissions = 1
	s.tunes[id] = run
	s.tuneWG.Add(1)
	s.tuneMu.Unlock()
	obs.TuneRuns.Add(1)
	run.hub.publish("queued", run.view())
	s.log.Info("tune run queued", "id", id, "name", sp.Name, "objective", sp.Objective,
		"space", sp.SpaceSize(), "planned_probes", sp.PlannedProbes(), "trace", traceID)
	go s.runTune(ctx, run)
	writeJSON(w, http.StatusAccepted, run.view())
}

// runTune executes one search on its own goroutine. The driver is a
// queue *client*, not a queue worker: it submits probe jobs and waits
// on them, so it must never occupy a scheduler worker slot itself (a
// single-worker daemon would deadlock).
func (s *Server) runTune(ctx context.Context, run *TuneRun) {
	defer s.tuneWG.Done()
	run.mu.Lock()
	run.state = JobRunning
	run.started = time.Now()
	run.mu.Unlock()
	run.hub.publish("started", run.view())

	runStart := time.Now()
	genStart := runStart
	driver := tune.New(run.Space, &schedProber{s: s, run: run})
	driver.OnEvent = func(ev tune.Event) {
		switch ev.Type {
		case "incumbent":
			obs.TuneIncumbentUpdates.Add(1)
		case "generation":
			// One span per generation, on the run's trace: the whole
			// search plus every probe job it spawned renders as one
			// connected Perfetto timeline.
			now := time.Now()
			s.spans.Record(obs.Span{
				Trace: run.TraceID, Name: "tune-generation",
				Start: genStart, End: now,
				Args: map[string]any{
					"phase": ev.Phase, "rung": ev.Rung, "evaluated": ev.Evaluated,
					"best": ev.BestLabel, "best_score": ev.BestScore, "probes": ev.Probes,
				},
			})
			genStart = now
		}
		run.hub.publish(ev.Type, ev)
	}
	res, err := driver.Run(ctx)
	s.spans.Record(obs.Span{
		Trace: run.TraceID, Name: "tune-run", Start: runStart, End: time.Now(),
		Args: map[string]any{"id": run.ID, "name": run.Space.Name},
	})
	switch {
	case err == nil:
		s.log.Info("tune run done", "id", run.ID, "best", res.Best.Label,
			"score", res.Best.Score, "probes", res.Stats.Probes, "cache_hits", res.Stats.CacheHits)
		run.finish(JobDone, res, "")
	case ctx.Err() != nil:
		run.finish(JobCanceled, nil, "tune run canceled")
	default:
		s.log.Warn("tune run failed", "id", run.ID, "err", err)
		run.finish(JobFailed, nil, err.Error())
	}
}

// schedProber is the daemon-side tune prober: consult the result store
// first (the acquisition cache), then submit one probe job for the
// cells that actually need simulating and wait for it.
type schedProber struct {
	s   *Server
	run *TuneRun
}

// tuneSubmitRetry paces re-submission while the queue is full.
const tuneSubmitRetry = 100 * time.Millisecond

// Probe implements tune.Prober.
func (p *schedProber) Probe(ctx context.Context, specs []experiments.ConfigSpec, fid tune.Fidelity, class tune.ProbeClass) ([]tune.Outcome, error) {
	priority := PriorityLow
	if class == tune.ProbeRefine {
		priority = PriorityHigh
	}
	return tune.ProbeStoreFirst(p.s.resultStore(), p.run.Space, specs, fid, func(d *experiments.Descriptor) ([]experiments.DescriptorResult, error) {
		job, err := p.submit(ctx, d, priority)
		if err != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-job.Done():
		}
		switch job.State() {
		case JobDone:
			return job.Results(), nil
		case JobCanceled:
			return nil, fmt.Errorf("serve: probe job %s canceled: %s", job.ID, job.Err())
		default:
			return nil, fmt.Errorf("serve: probe job %s failed: %s", job.ID, job.Err())
		}
	}, func(probes, hits int) {
		obs.TuneProbes.Add(float64(probes))
		obs.TuneCacheProbeHits.Add(float64(hits))
	})
}

// submit enqueues one probe descriptor under the tune run's identity
// and trace, waiting out transient queue-full rejections.
func (p *schedProber) submit(ctx context.Context, d *experiments.Descriptor, priority int) (*Job, error) {
	client := "tune:" + p.run.ID
	for {
		job, _, err := p.s.sched.SubmitTraced(d, client, priority, p.run.TraceID)
		switch {
		case err == nil:
			return job, nil
		case errors.Is(err, ErrQueueFull):
			t := time.NewTimer(tuneSubmitRetry)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		default:
			return nil, err
		}
	}
}

// handleTuneList is GET /v1/tune: every run, oldest first.
func (s *Server) handleTuneList(w http.ResponseWriter, r *http.Request) {
	s.tuneMu.Lock()
	views := make([]TuneView, 0, len(s.tunes))
	for _, t := range s.tunes {
		views = append(views, t.view())
	}
	s.tuneMu.Unlock()
	sort.Slice(views, func(i, k int) bool { return views[i].Created < views[k].Created })
	writeJSON(w, http.StatusOK, map[string]any{"runs": views})
}

func (s *Server) tuneOr404(w http.ResponseWriter, r *http.Request) (*TuneRun, bool) {
	id := r.PathValue("id")
	t, ok := s.tuneRun(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: unknown tune run %q", id))
		return nil, false
	}
	return t, true
}

// handleTune is GET /v1/tune/{id}.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tuneOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, t.view())
}

// handleTuneCancel is DELETE /v1/tune/{id}.
func (s *Server) handleTuneCancel(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tuneOr404(w, r)
	if !ok {
		return
	}
	t.Cancel()
	writeJSON(w, http.StatusOK, t.view())
}

// handleTuneEvents is GET /v1/tune/{id}/events: the run's SSE frontier
// stream (probe scores, generation summaries, eliminations, incumbent
// updates, terminal state), resumable via Last-Event-ID exactly like
// job streams.
func (s *Server) handleTuneEvents(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tuneOr404(w, r)
	if !ok {
		return
	}
	s.streamHub(w, r, t.Events())
}
