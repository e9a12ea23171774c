package obs

import "testing"

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for c := uint64(0); c < 6; c++ {
		tr.Record(Event{Cycle: c, Kind: EvResteer})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("Events len = %d, want 4", len(ev))
	}
	// Oldest two (cycles 0, 1) were overwritten; record order preserved.
	for i, e := range ev {
		if want := uint64(i + 2); e.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if got := cap(tr.events); got != DefaultTracerCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTracerCapacity)
	}
}

func TestEventKindString(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if s := k.String(); s == "" || s[0] == 'e' && s != "event" {
			// All defined kinds must have symbolic names.
			if len(s) > 6 && s[:6] == "event(" {
				t.Errorf("kind %d has no symbolic name", k)
			}
		}
	}
	if got := EventKind(250).String(); got != "event(250)" {
		t.Errorf("unknown kind = %q", got)
	}
}

// TestObserverHooksWithoutSinks exercises every hook on an observer with
// no tracer and no lifecycle attached: the enabled-but-empty observer
// must be a safe no-op.
func TestObserverHooksWithoutSinks(t *testing.T) {
	o := &Observer{}
	o.SetNow(100)
	o.PrefetchEmitted(0x40, false)
	o.PrefetchArrived(0x40, 50, false, false)
	o.PrefetchHit(0x40, 0, false)
	o.PrefetchEvicted(0x40, true)
	o.FTQResize(32, 48)
	o.UFTQWindow(48, 0.9, 0.8)
	o.UDPLearn(0x80)
	o.UDPDrop(0xc0)
	o.Resteer()
	o.Recovery(17)
	if o.Now() != 100 {
		t.Fatalf("Now = %d, want 100", o.Now())
	}
}

func TestObserverHooksRecordAndTrack(t *testing.T) {
	o := &Observer{Trace: NewTracer(64), Life: NewLifecycle()}
	o.SetNow(10)
	o.PrefetchEmitted(0x100, false)
	o.SetNow(60)
	o.PrefetchArrived(0x100, 10, false, false)
	o.SetNow(90)
	o.PrefetchHit(0x100, 0, false) // timely icache hit, 30 cycles after fill

	o.SetNow(100)
	o.PrefetchEmitted(0x200, true)
	o.SetNow(150)
	o.PrefetchArrived(0x200, 100, true, false)
	o.SetNow(160)
	o.PrefetchEvicted(0x200, true) // never used

	byKind := o.Trace.CountByKind()
	for kind, want := range map[string]int{
		"prefetch-emitted": 2, "prefetch-arrived": 2,
		"prefetch-hit": 1, "prefetch-evicted": 1,
	} {
		if byKind[kind] != want {
			t.Errorf("%s events = %d, want %d", kind, byKind[kind], want)
		}
	}

	s := o.Life.Summary()
	if !s.Tracked {
		t.Fatal("summary not tracked")
	}
	if s.Emitted != 2 || s.Filled != 2 || s.FirstUses != 1 ||
		s.TimelyUses != 1 || s.LateUses != 0 || s.EvictedUnused != 1 {
		t.Fatalf("summary counts = %+v", s)
	}
	if s.EmitToFillMean != 50 { // both fills took 50 cycles
		t.Errorf("EmitToFillMean = %v, want 50", s.EmitToFillMean)
	}
	if o.Life.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", o.Life.Pending())
	}
}

func TestLifecycleLateUseAndReset(t *testing.T) {
	l := NewLifecycle()
	o := &Observer{Life: l}
	o.SetNow(10)
	o.PrefetchEmitted(0x40, false)
	o.SetNow(40)
	o.PrefetchHit(0x40, 25, true) // fill-buffer hit: demand waited 25 cycles
	s := l.Summary()
	if s.LateUses != 1 || s.TimelyUses != 0 {
		t.Fatalf("late/timely = %d/%d, want 1/0", s.LateUses, s.TimelyUses)
	}
	if got := s.LateRatio(); got != 1 {
		t.Fatalf("LateRatio = %v, want 1", got)
	}
	l.Reset()
	s = l.Summary()
	if s.Emitted != 0 || s.FirstUses != 0 || s.LateUses != 0 {
		t.Fatalf("post-Reset summary = %+v", s)
	}
	if s.LateRatio() != 0 {
		t.Fatalf("post-Reset LateRatio = %v, want 0", s.LateRatio())
	}
}

func TestLifecycleSummaryMerge(t *testing.T) {
	mk := func(wait uint64) LifecycleSummary {
		l := NewLifecycle()
		o := &Observer{Life: l}
		o.SetNow(10)
		o.PrefetchEmitted(0x40, false)
		o.SetNow(30)
		o.PrefetchArrived(0x40, 10, false, false)
		o.SetNow(50)
		o.PrefetchHit(0x40, wait, wait > 0)
		return l.Summary()
	}
	a, b := mk(0), mk(40)
	m := a.Merge(b)
	if m.Emitted != 2 || m.Filled != 2 || m.FirstUses != 2 {
		t.Fatalf("merged counts = %+v", m)
	}
	if m.TimelyUses != 1 || m.LateUses != 1 {
		t.Fatalf("merged timely/late = %d/%d, want 1/1", m.TimelyUses, m.LateUses)
	}
	if m.EmitToFillMean != 20 {
		t.Errorf("merged EmitToFillMean = %v, want 20", m.EmitToFillMean)
	}
	// Merging with an untracked summary returns the tracked side.
	if got := (LifecycleSummary{}).Merge(a); !got.Tracked || got.Emitted != a.Emitted {
		t.Errorf("untracked.Merge(tracked) = %+v", got)
	}
	if got := a.Merge(LifecycleSummary{}); !got.Tracked || got.Emitted != a.Emitted {
		t.Errorf("tracked.Merge(untracked) = %+v", got)
	}
}

// TestHooksDoNotAllocate guards the zero-allocation claim for the
// enabled-observer paths that run on every simulated cycle: recording
// into a pre-sized ring and lifecycle counters must not allocate (the
// fully disabled path — nil *Observer — is a nil check at the call site
// and never reaches this package).
func TestHooksDoNotAllocate(t *testing.T) {
	bare := &Observer{}
	if allocs := testing.AllocsPerRun(1000, func() {
		bare.SetNow(1)
		bare.PrefetchEmitted(0x40, false)
		bare.FTQResize(32, 48)
		bare.Resteer()
		bare.Recovery(10)
	}); allocs != 0 {
		t.Errorf("sink-less hooks allocate %.1f per run, want 0", allocs)
	}

	traced := &Observer{Trace: NewTracer(1 << 12)}
	for i := 0; i < 1<<12; i++ {
		traced.Resteer() // pre-fill the ring so Record overwrites in place
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		traced.PrefetchEmitted(0x40, false)
		traced.FTQResize(32, 48)
		traced.Recovery(10)
	}); allocs != 0 {
		t.Errorf("ring-recording hooks allocate %.1f per run, want 0", allocs)
	}
}

func TestAddSampleStreams(t *testing.T) {
	(&Observer{}).AddSample(IntervalSample{Cycle: 1}) // no sink: dropped

	var streamed []IntervalSample
	o := &Observer{OnSample: func(s IntervalSample) { streamed = append(streamed, s) }}
	o.AddSample(IntervalSample{Cycle: 2})
	o.AddSample(IntervalSample{Cycle: 3})
	if len(streamed) != 2 || streamed[0].Cycle != 2 || streamed[1].Cycle != 3 {
		t.Fatalf("streamed %+v, want the samples of cycles 2 and 3 in order", streamed)
	}
}
