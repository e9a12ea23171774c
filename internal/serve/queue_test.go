package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/sim"
)

// testDescriptor builds a distinct (by name) descriptor; the fake
// RunFuncs below never actually simulate it.
func testDescriptor(name string) *experiments.Descriptor {
	return &experiments.Descriptor{
		Name:         name,
		Workloads:    []string{"mysql"},
		Instructions: 1000,
		Simpoints:    1,
		Configs:      []experiments.ConfigSpec{{Label: "base", Mechanism: "baseline"}},
	}
}

func fakeResults(j *Job) []experiments.DescriptorResult {
	return []experiments.DescriptorResult{{
		Workload: "mysql", Label: "base",
		Result: sim.Result{Workload: "mysql", IPC: 1.0},
	}}
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
	if got := j.State(); got != want {
		t.Fatalf("job state = %s, want %s (err %q)", got, want, j.Err())
	}
}

func TestSchedulerRunsJob(t *testing.T) {
	var runs int
	var mu sync.Mutex
	s := NewScheduler(SchedulerConfig{
		Workers: 1,
		Run: func(ctx context.Context, j *Job) ([]experiments.DescriptorResult, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			return fakeResults(j), nil
		},
	})
	defer s.Drain(context.Background())
	j, deduped, err := s.Submit(testDescriptor("one"), "alice", 0)
	if err != nil || deduped {
		t.Fatalf("Submit: deduped=%v err=%v", deduped, err)
	}
	waitState(t, j, JobDone)
	if len(j.Results()) != 1 {
		t.Fatalf("results = %d cells, want 1", len(j.Results()))
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
}

func TestSchedulerDedupAcrossClients(t *testing.T) {
	gate := make(chan struct{})
	var runs int
	var mu sync.Mutex
	s := NewScheduler(SchedulerConfig{
		Workers: 2,
		Run: func(ctx context.Context, j *Job) ([]experiments.DescriptorResult, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			<-gate
			return fakeResults(j), nil
		},
	})
	defer s.Drain(context.Background())
	d := testDescriptor("same")
	j1, dd1, err := s.Submit(d, "alice", 0)
	if err != nil || dd1 {
		t.Fatalf("first Submit: deduped=%v err=%v", dd1, err)
	}
	j2, dd2, err := s.Submit(testDescriptor("same"), "bob", 0)
	if err != nil || !dd2 {
		t.Fatalf("second Submit: deduped=%v err=%v", dd2, err)
	}
	if j1 != j2 {
		t.Fatal("identical descriptors produced distinct jobs")
	}
	if j1.Submissions() != 2 {
		t.Fatalf("submissions = %d, want 2", j1.Submissions())
	}
	close(gate)
	waitState(t, j1, JobDone)
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("runs = %d, want exactly 1 (singleflight)", runs)
	}
	// Submitting after completion still attaches to the finished job.
	j3, dd3, err := s.Submit(testDescriptor("same"), "carol", 0)
	if err != nil || !dd3 || j3 != j1 {
		t.Fatalf("post-completion Submit: deduped=%v same=%v err=%v", dd3, j3 == j1, err)
	}
}

// gatedScheduler builds a 1-worker scheduler whose RunFunc records the
// order jobs start in and blocks each on a per-job release channel.
func gatedScheduler(t *testing.T, maxQueue int) (*Scheduler, *[]string, *sync.Mutex, chan struct{}) {
	t.Helper()
	var order []string
	var mu sync.Mutex
	release := make(chan struct{})
	s := NewScheduler(SchedulerConfig{
		Workers:  1,
		MaxQueue: maxQueue,
		Run: func(ctx context.Context, j *Job) ([]experiments.DescriptorResult, error) {
			mu.Lock()
			order = append(order, j.Name)
			mu.Unlock()
			select {
			case <-release:
				return fakeResults(j), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	return s, &order, &mu, release
}

func TestSchedulerPriorityOrder(t *testing.T) {
	s, order, mu, release := gatedScheduler(t, 16)
	defer func() { s.Drain(context.Background()) }()
	// "head" occupies the worker; the rest queue up.
	head, _, _ := s.Submit(testDescriptor("head"), "alice", 0)
	waitRunning(t, head)
	low, _, _ := s.Submit(testDescriptor("low"), "alice", 0)
	high, _, _ := s.Submit(testDescriptor("high"), "alice", 5)
	close(release)
	waitState(t, head, JobDone)
	waitState(t, low, JobDone)
	waitState(t, high, JobDone)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"head", "high", "low"}
	for i := range want {
		if (*order)[i] != want[i] {
			t.Fatalf("run order = %v, want %v", *order, want)
		}
	}
}

func TestSchedulerFairRoundRobin(t *testing.T) {
	s, order, mu, release := gatedScheduler(t, 16)
	defer func() { s.Drain(context.Background()) }()
	head, _, _ := s.Submit(testDescriptor("head"), "alice", 0)
	waitRunning(t, head)
	a1, _, _ := s.Submit(testDescriptor("a1"), "alice", 0)
	a2, _, _ := s.Submit(testDescriptor("a2"), "alice", 0)
	b1, _, _ := s.Submit(testDescriptor("b1"), "bob", 0)
	close(release)
	for _, j := range []*Job{head, a1, a2, b1} {
		waitState(t, j, JobDone)
	}
	mu.Lock()
	defer mu.Unlock()
	// bob's single job must not wait behind alice's whole backlog.
	got := *order
	if got[1] != "a1" || got[2] != "b1" || got[3] != "a2" {
		t.Fatalf("run order = %v, want [head a1 b1 a2]", got)
	}
}

func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (state %s)", j.ID, j.State())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	s, _, _, release := gatedScheduler(t, 2)
	defer func() { s.Drain(context.Background()) }()
	head, _, _ := s.Submit(testDescriptor("head"), "alice", 0)
	waitRunning(t, head)
	if _, _, err := s.Submit(testDescriptor("q1"), "alice", 0); err != nil {
		t.Fatalf("q1: %v", err)
	}
	if _, _, err := s.Submit(testDescriptor("q2"), "alice", 0); err != nil {
		t.Fatalf("q2: %v", err)
	}
	if _, _, err := s.Submit(testDescriptor("overflow"), "alice", 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	// Deduped submissions are admitted even with a full queue.
	if _, dd, err := s.Submit(testDescriptor("q1"), "bob", 0); err != nil || !dd {
		t.Fatalf("dedup during overflow: deduped=%v err=%v", dd, err)
	}
	close(release)
}

func TestSchedulerCancelQueued(t *testing.T) {
	s, order, mu, release := gatedScheduler(t, 16)
	defer func() { s.Drain(context.Background()) }()
	head, _, _ := s.Submit(testDescriptor("head"), "alice", 0)
	waitRunning(t, head)
	victim, _, _ := s.Submit(testDescriptor("victim"), "alice", 0)
	victim.Cancel("changed my mind")
	waitState(t, victim, JobCanceled)
	if victim.Err() != "changed my mind" {
		t.Fatalf("victim err = %q", victim.Err())
	}
	close(release)
	waitState(t, head, JobDone)
	mu.Lock()
	defer mu.Unlock()
	for _, name := range *order {
		if name == "victim" {
			t.Fatal("canceled queued job was still run")
		}
	}
}

// TestSchedulerCancelQueuedFreesSlot pins that a job canceled while
// queued gives its slot back at cancel time: the queue depth drops, the
// admission bound admits new work, and the freed job never runs.
func TestSchedulerCancelQueuedFreesSlot(t *testing.T) {
	s, order, mu, release := gatedScheduler(t, 2)
	defer func() { s.Drain(context.Background()) }()
	head, _, _ := s.Submit(testDescriptor("head"), "alice", 0)
	waitRunning(t, head)
	q1, _, _ := s.Submit(testDescriptor("q1"), "alice", 0)
	q2, _, _ := s.Submit(testDescriptor("q2"), "bob", 0)
	q1.Cancel("gone")
	q2.Cancel("gone")
	waitState(t, q1, JobCanceled)
	waitState(t, q2, JobCanceled)
	if d := s.QueueDepth(); d != 0 {
		t.Errorf("queue depth after canceling both queued jobs = %d, want 0", d)
	}
	late, _, err := s.Submit(testDescriptor("late"), "carol", 0)
	close(release)
	if err != nil {
		t.Fatalf("Submit after cancels: %v, want admitted", err)
	}
	waitState(t, head, JobDone)
	waitState(t, late, JobDone)
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"head", "late"}; len(*order) != 2 || (*order)[1] != "late" {
		t.Fatalf("run order = %v, want %v", *order, want)
	}
}

func TestSchedulerCancelRunning(t *testing.T) {
	s, _, _, _ := gatedScheduler(t, 16)
	defer func() { s.Drain(context.Background()) }()
	j, _, _ := s.Submit(testDescriptor("running"), "alice", 0)
	waitRunning(t, j)
	j.Cancel("stop")
	waitState(t, j, JobCanceled)
}

func TestSchedulerJobTimeout(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		Run: func(ctx context.Context, j *Job) ([]experiments.DescriptorResult, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	defer s.Drain(context.Background())
	j, _, _ := s.Submit(testDescriptor("slow"), "alice", 0)
	waitState(t, j, JobCanceled)
	if j.Err() == "" {
		t.Fatal("timed-out job carries no error message")
	}
}

func TestSchedulerDrain(t *testing.T) {
	s, _, _, release := gatedScheduler(t, 16)
	running, _, _ := s.Submit(testDescriptor("running"), "alice", 0)
	waitRunning(t, running)
	queued, _, _ := s.Submit(testDescriptor("queued"), "alice", 0)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Queued jobs are canceled promptly; the running one gets to finish.
	waitState(t, queued, JobCanceled)
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitState(t, running, JobDone)
	if len(running.Results()) == 0 {
		t.Fatal("drained running job lost its results")
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if _, _, err := s.Submit(testDescriptor("late"), "alice", 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit err = %v, want ErrDraining", err)
	}
}

func TestSchedulerDrainForcesStragglers(t *testing.T) {
	s, _, _, _ := gatedScheduler(t, 16)
	j, _, _ := s.Submit(testDescriptor("straggler"), "alice", 0)
	waitRunning(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Drain err = %v, want DeadlineExceeded", err)
	}
	waitState(t, j, JobCanceled)
}

func TestJobIDContentAddressed(t *testing.T) {
	a, b := testDescriptor("x"), testDescriptor("x")
	if JobID(a) != JobID(b) {
		t.Fatal("identical descriptors hash to different job IDs")
	}
	c := testDescriptor("x")
	c.Instructions = 2000
	if JobID(a) == JobID(c) {
		t.Fatal("different descriptors hash to the same job ID")
	}
}
