package sim

import (
	"fmt"
	"sync"

	"udpsim/internal/workload"
)

// Generating a multi-megabyte program image dominates short runs, and
// generation is fully deterministic in the profile, so images are
// shared process-wide across machines (the image is immutable after
// generation; executors carry all mutable state).
//
// Lookups are singleflighted: concurrent requests for the same profile
// block on the first generator instead of generating twice, and
// requests for *different* profiles generate concurrently (the lock is
// not held across Generate).
var (
	imageMu       sync.Mutex
	imageCache    = map[string]*workload.Program{}
	imageInflight = map[string]*imageCall{}
)

type imageCall struct {
	done chan struct{}
	prog *workload.Program
	err  error
}

// SharedImage returns the (cached) program image for a profile.
func SharedImage(p workload.Profile) (*workload.Program, error) {
	key := ProfileKey(p)
	imageMu.Lock()
	if prog, ok := imageCache[key]; ok {
		imageMu.Unlock()
		return prog, nil
	}
	if c, ok := imageInflight[key]; ok {
		imageMu.Unlock()
		<-c.done
		return c.prog, c.err
	}
	c := &imageCall{done: make(chan struct{})}
	imageInflight[key] = c
	imageMu.Unlock()

	c.prog, c.err = workload.Generate(p)

	imageMu.Lock()
	if c.err == nil {
		imageCache[key] = c.prog
	}
	delete(imageInflight, key)
	imageMu.Unlock()
	close(c.done)
	return c.prog, c.err
}

// workloadImage resolves the static image for a configuration: the
// registered trace source's embedded image for trace-driven configs
// (already decoded once at load — every machine over the same trace
// shares it), the profile-generated shared image otherwise.
func workloadImage(cfg Config) (*workload.Program, error) {
	if cfg.TraceRef != "" {
		s, ok := workload.SourceByKey("trace:" + cfg.TraceRef)
		if !ok {
			return nil, fmt.Errorf("sim: trace %s not registered (load it with experiments.ResolveTraces or FlagTraces)", cfg.TraceRef)
		}
		return s.Image()
	}
	return SharedImage(cfg.Workload)
}
