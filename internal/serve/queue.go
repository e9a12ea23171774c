package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/obs"
)

// Admission-control errors, mapped by the HTTP layer to 429/503.
var (
	// ErrQueueFull means the bounded queue rejected the submission.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the daemon is shutting down and accepts no new
	// work.
	ErrDraining = errors.New("serve: daemon is draining")
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Queue priority levels (higher runs earlier). Any integer is a valid
// priority — these are the conventional levels: interactive
// submissions default to PriorityNormal, the tune driver submits
// exploration probes at PriorityLow so they yield to interactive work,
// and refinement probes at PriorityHigh so a nearly-converged search
// finishes promptly.
const (
	PriorityLow    = -10
	PriorityNormal = 0
	PriorityHigh   = 10
)

// Job is one submitted experiment descriptor moving through the
// scheduler. Jobs are content-addressed: the ID is derived from the
// canonical (validated, defaults-applied) descriptor JSON, so two
// clients submitting the same experiment share one Job — the
// cross-client singleflight the dedup counters measure.
type Job struct {
	ID         string
	Name       string
	Descriptor *experiments.Descriptor
	Priority   int
	Client     string // first submitter
	// TraceID connects everything this job caused — queue-wait, store
	// I/O, warmup/measure — into one timeline.
	// Minted at submission or propagated from the client's X-Trace-ID;
	// deduplicated submissions keep the original job's trace. Immutable
	// after creation.
	TraceID string
	// seq is the scheduler-assigned admission sequence number — the
	// stable order GET /v1/jobs pages by. Deduplicated submissions keep
	// the original job's seq. Immutable after creation.
	seq int64
	// sched is the owning scheduler, so a queued job can leave its
	// queue when canceled.
	sched *Scheduler

	hub  *eventHub
	done chan struct{}

	mu          sync.Mutex
	state       JobState
	err         string
	cancelAsked bool
	cancelRun   context.CancelFunc // set while running
	submissions int64
	created     time.Time
	started     time.Time
	finished    time.Time
	results     []experiments.DescriptorResult
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure message ("" unless state is failed/canceled).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Results returns the completed grid (nil unless state is done).
func (j *Job) Results() []experiments.DescriptorResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results
}

// Submissions counts how many submissions attached to this job
// (1 = never deduplicated).
func (j *Job) Submissions() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submissions
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Events exposes the job's event hub for SSE subscriptions.
func (j *Job) Events() *eventHub { return j.hub }

// Cancel requests cancellation: a queued job terminates immediately, a
// running job's context is canceled and the worker winds it down.
// Canceling a terminal job is a no-op.
func (j *Job) Cancel(reason string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.cancelAsked = true
	if j.err == "" {
		j.err = reason
	}
	cancel := j.cancelRun
	queued := j.state == JobQueued
	j.mu.Unlock()
	if cancel != nil {
		cancel() // running: the worker finishes the state transition
	} else if queued {
		// Not yet picked up: give back its queue slot now, then finish
		// it here. A worker that popped it first sees cancelAsked and
		// finishes it instead.
		j.sched.dequeue(j)
		j.finish(JobCanceled, nil, reason)
	}
}

// finish moves the job to a terminal state exactly once, records the
// outcome, publishes the terminal event and closes Done.
func (j *Job) finish(state JobState, results []experiments.DescriptorResult, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.results = results
	if errMsg != "" {
		j.err = errMsg
	}
	j.finished = time.Now()
	j.mu.Unlock()
	switch state {
	case JobDone:
		obs.DaemonJobsCompleted.Add(1)
	case JobFailed:
		obs.DaemonJobsFailed.Add(1)
	case JobCanceled:
		obs.DaemonJobsCanceled.Add(1)
	}
	j.hub.publish(string(state), j.view(true))
	close(j.done)
}

// JobID derives the content-addressed job ID of a validated
// descriptor: "j" + the first 32 hex chars of the SHA-256 of its
// canonical JSON (defaults applied, so logically identical submissions
// collide — which is the point).
func JobID(d *experiments.Descriptor) string {
	blob, err := json.Marshal(d)
	if err != nil {
		// Descriptor structs always marshal; defensive fallback.
		blob = []byte(fmt.Sprintf("%+v", d))
	}
	sum := sha256.Sum256(blob)
	return "j" + hex.EncodeToString(sum[:16])
}

// RunFunc executes a job's descriptor and returns the grid results.
// The scheduler cancels ctx on job cancellation, timeout, or forced
// drain.
type RunFunc func(ctx context.Context, job *Job) ([]experiments.DescriptorResult, error)

// SchedulerConfig sizes the scheduler.
type SchedulerConfig struct {
	// Workers is the number of jobs run concurrently (default 1).
	// Per-job simulation parallelism is the RunFunc's business.
	Workers int
	// MaxQueue bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with ErrQueueFull (HTTP 429).
	// Default 64.
	MaxQueue int
	// JobTimeout caps one job's run time (0 = unlimited).
	JobTimeout time.Duration
	// Run executes a job (required).
	Run RunFunc
	// OnSpan, when set, receives the scheduler's queue-wait span per
	// job, already stamped with the owning job's trace ID. Must be safe
	// for concurrent use.
	OnSpan func(obs.Span)
	// Log receives scheduler lifecycle logs (nil = discard).
	Log *slog.Logger
}

// Scheduler is the daemon's job queue: per-client FIFO queues drained
// with priority-first, round-robin-fair scheduling onto a bounded
// worker pool, with content-addressed cross-client deduplication and
// graceful drain. All methods are safe for concurrent use.
type Scheduler struct {
	cfg SchedulerConfig

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job   // every job ever submitted, by ID
	queues   map[string][]*Job // client → FIFO of queued jobs
	order    []string          // round-robin rotation of clients with queues
	rr       int               // next rotation start index
	queued   int               // jobs sitting in queues
	running  map[string]*Job   // jobs currently executing
	seq      int64             // admission sequence (stable job-list order)
	draining bool

	wg sync.WaitGroup // worker goroutines
}

// NewScheduler builds and starts a scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Scheduler{
		cfg:     cfg,
		jobs:    map[string]*Job{},
		queues:  map[string][]*Job{},
		running: map[string]*Job{},
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit enqueues a descriptor (which must already be validated) for a
// client at a priority (higher runs earlier). If an identical job is
// already known — queued, running, or finished — the submission
// attaches to it instead (deduped=true). Admission control applies
// only to genuinely new jobs.
func (s *Scheduler) Submit(d *experiments.Descriptor, client string, priority int) (job *Job, deduped bool, err error) {
	return s.SubmitTraced(d, client, priority, "")
}

// SubmitTraced is Submit with an explicit trace ID (client-propagated
// X-Trace-ID); an empty traceID mints a fresh one. A deduplicated
// submission keeps the existing job's trace — the work happens once,
// under the first submitter's trace.
func (s *Scheduler) SubmitTraced(d *experiments.Descriptor, client string, priority int, traceID string) (job *Job, deduped bool, err error) {
	if client == "" {
		client = "anonymous"
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	id := JobID(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[id]; ok {
		existing.mu.Lock()
		existing.submissions++
		existing.mu.Unlock()
		obs.DaemonJobsSubmitted.Add(1)
		obs.DaemonJobsDeduped.Add(1)
		return existing, true, nil
	}
	if s.draining {
		obs.DaemonJobsRejected.Add(1)
		return nil, false, ErrDraining
	}
	if s.queued >= s.cfg.MaxQueue {
		obs.DaemonJobsRejected.Add(1)
		return nil, false, ErrQueueFull
	}
	s.seq++
	j := &Job{
		ID:         id,
		Name:       d.Name,
		Descriptor: d,
		Priority:   priority,
		Client:     client,
		TraceID:    traceID,
		seq:        s.seq,
		sched:      s,
		hub:        newEventHub(),
		done:       make(chan struct{}),
		state:      JobQueued,
		created:    time.Now(),
	}
	j.submissions = 1
	s.jobs[id] = j
	if _, ok := s.queues[client]; !ok {
		s.order = append(s.order, client)
	}
	// Priority-ordered insert, FIFO among equal priorities: the new job
	// goes after the last queued job with priority >= its own.
	q := append(s.queues[client], j)
	pos := len(q) - 1
	for pos > 0 && q[pos-1].Priority < priority {
		q[pos] = q[pos-1]
		pos--
	}
	q[pos] = j
	s.queues[client] = q
	s.queued++
	obs.DaemonQueueDepth.Set(float64(s.queued))
	obs.DaemonJobsSubmitted.Add(1)
	j.hub.publish("queued", j.view(false))
	s.cfg.Log.Info("job queued", "id", j.ID, "name", j.Name, "client", client,
		"priority", priority, "trace", traceID, "queue_depth", s.queued)
	s.cond.Signal()
	return j, false, nil
}

// Job looks up a job by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobList returns every known job (unspecified order).
func (s *Scheduler) JobList() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// QueueDepth reports the number of queued jobs.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// next pops the job to run: the highest-priority queue head, ties
// broken round-robin across clients so one chatty client cannot starve
// the rest. Blocks until a job is available; returns nil when draining
// with an empty queue (worker exit signal).
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.popLocked(); j != nil {
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// dequeue removes a queued job from its client's queue (and the client
// from the rotation when that empties it), freeing its admission slot.
// A job no longer queued — already popped, or swept by Drain — is left
// alone.
func (s *Scheduler) dequeue(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for idx, client := range s.order {
		if client != j.Client {
			continue
		}
		for pos, qj := range s.queues[client] {
			if qj == j {
				s.removeLocked(idx, pos)
				return
			}
		}
		return
	}
}

// popLocked removes and returns the next queued job under the
// scheduling policy. Caller holds s.mu.
func (s *Scheduler) popLocked() *Job {
	if len(s.order) == 0 {
		return nil
	}
	// Highest priority among queue heads wins; among equal-priority
	// heads, the first client at or after the rotation cursor wins.
	bestIdx := -1
	bestPrio := 0
	n := len(s.order)
	for k := 0; k < n; k++ {
		idx := (s.rr + k) % n
		q := s.queues[s.order[idx]]
		if len(q) == 0 {
			continue
		}
		if bestIdx == -1 || q[0].Priority > bestPrio {
			bestIdx, bestPrio = idx, q[0].Priority
		}
	}
	if bestIdx == -1 {
		return nil
	}
	j := s.queues[s.order[bestIdx]][0]
	if !s.removeLocked(bestIdx, 0) {
		// Advance the cursor past the served client for fairness.
		s.rr = (bestIdx + 1) % len(s.order)
	}
	return j
}

// removeLocked takes the job at pos out of the queue of the client at
// rotation index idx, dropping the client from the rotation (and
// shifting the cursor to match) when its queue empties. Reports whether
// the client was dropped. Caller holds s.mu.
func (s *Scheduler) removeLocked(idx, pos int) (dropped bool) {
	client := s.order[idx]
	q := s.queues[client]
	q = append(q[:pos], q[pos+1:]...)
	s.queued--
	obs.DaemonQueueDepth.Set(float64(s.queued))
	if len(q) > 0 {
		s.queues[client] = q
		return false
	}
	delete(s.queues, client)
	s.order = append(s.order[:idx], s.order[idx+1:]...)
	if idx < s.rr {
		s.rr--
	}
	if len(s.order) > 0 {
		s.rr %= len(s.order)
	} else {
		s.rr = 0
	}
	return true
}

// worker runs jobs until drain empties the queue.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one dequeued job and maps the run's outcome to its
// terminal state.
func (s *Scheduler) runJob(j *Job) {
	base := context.Background()
	ctx, cancel := context.WithCancel(base)
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(base, s.cfg.JobTimeout)
	}
	defer cancel()

	j.mu.Lock()
	if j.cancelAsked { // canceled between dequeue and start
		j.mu.Unlock()
		j.finish(JobCanceled, nil, "canceled")
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancelRun = cancel
	created, started := j.created, j.started
	j.mu.Unlock()
	// Queue-wait telemetry: the wait histogram and a per-trace span
	// covering submission to start.
	obs.QueueWaitUS.Observe(uint64(max(started.Sub(created), 0).Microseconds()))
	if s.cfg.OnSpan != nil {
		s.cfg.OnSpan(obs.Span{
			Trace: j.TraceID,
			Name:  "queue-wait",
			Start: created,
			End:   started,
			Args:  map[string]any{"job": j.ID, "client": j.Client, "priority": j.Priority},
		})
	}

	s.mu.Lock()
	s.running[j.ID] = j
	s.mu.Unlock()

	j.hub.publish("started", j.view(false))
	s.cfg.Log.Info("job started", "id", j.ID, "name", j.Name)

	results, err := s.cfg.Run(ctx, j)

	s.mu.Lock()
	delete(s.running, j.ID)
	s.mu.Unlock()

	j.mu.Lock()
	j.cancelRun = nil
	asked := j.cancelAsked
	j.mu.Unlock()

	switch {
	case err == nil:
		j.finish(JobDone, results, "")
		s.cfg.Log.Info("job done", "id", j.ID, "cells", len(results),
			"elapsed", time.Since(j.started).Round(time.Millisecond))
	case asked || errors.Is(err, context.Canceled):
		j.finish(JobCanceled, nil, "canceled")
		s.cfg.Log.Info("job canceled", "id", j.ID)
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(JobCanceled, nil, fmt.Sprintf("timed out after %s", s.cfg.JobTimeout))
		s.cfg.Log.Warn("job timed out", "id", j.ID, "timeout", s.cfg.JobTimeout)
	default:
		j.finish(JobFailed, nil, err.Error())
		s.cfg.Log.Error("job failed", "id", j.ID, "err", err)
	}
}

// Drain gracefully shuts the scheduler down: new submissions are
// rejected, queued jobs are canceled, and running jobs are given until
// ctx expires to finish (their results are persisted by the engine's
// store write-back as usual). When ctx expires first, running jobs are
// canceled cooperatively and Drain waits for the workers to unwind.
// Safe to call more than once.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var queuedJobs []*Job
	for _, q := range s.queues {
		queuedJobs = append(queuedJobs, q...)
	}
	s.queues = map[string][]*Job{}
	s.order = nil
	s.queued = 0
	obs.DaemonQueueDepth.Set(0)
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range queuedJobs {
		j.Cancel("server draining")
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Grace period over: cancel the stragglers and wait for the
	// cooperative cancellation to unwind them.
	s.mu.Lock()
	var running []*Job
	for _, j := range s.running {
		running = append(running, j)
	}
	s.mu.Unlock()
	for _, j := range running {
		j.Cancel("server draining (forced)")
	}
	<-done
	return ctx.Err()
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
