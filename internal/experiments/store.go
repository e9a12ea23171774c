package experiments

import (
	"fmt"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
)

// This file is the seam between the in-process result cache (engine.go)
// and a persistent result store (internal/serve's disk-backed,
// content-addressed store). The engine's cache reads *through* the
// store: an in-memory miss probes the store before simulating, and a
// completed simulation is written back. The hook is an interface so
// internal/experiments does not import internal/serve (the daemon
// depends on the engine, never the reverse).

// ResultStore is a persistent result cache (Options.Store) consulted by
// Options.run on in-memory misses and populated on completed
// simulations. Both methods must be safe for concurrent use.
//
// Load returns (result, true, nil) on a hit and (zero, false, nil) on a
// clean miss; an error means the store itself failed (I/O), which the
// engine treats as a miss (the simulation reruns) after counting it.
// Save persistence failures are the store's problem to report; the
// engine ignores them beyond counting, because a failed write-back must
// never fail the simulation that produced the result.
type ResultStore interface {
	Load(key string) (sim.Result, bool, error)
	Save(key string, r sim.Result) error
}

// CacheKey returns the canonical result-cache key for one simulated
// configuration at a given simpoint count — the exact string Options.run
// memoizes under, and therefore the key the persistent store is
// addressed by. Exported so the daemon can compute per-cell result
// addresses without rerunning anything.
func CacheKey(cfg sim.Config, simpoints int) string {
	if simpoints <= 0 {
		simpoints = 1
	}
	return fmt.Sprintf("%s|sp=%d", sim.ConfigKey(cfg), simpoints)
}

// FlushResultCache drops every entry of the in-process result cache
// (in-flight runs are unaffected: their waiters still resolve). The
// persistent store, if any, is untouched — after a flush the next run
// of a known configuration is served from disk, which is exactly what
// the daemon-restart tests exercise.
func FlushResultCache() {
	resultMu.Lock()
	resultCache = map[string]sim.Result{}
	resultMu.Unlock()
}

// storeLoad probes this run's persistent store (if any) for key,
// maintaining the obs counters and the read-latency histogram. The
// bool reports a usable hit.
func (o Options) storeLoad(key string) (sim.Result, bool) {
	st := o.Store
	if st == nil {
		return sim.Result{}, false
	}
	start := time.Now()
	r, ok, err := st.Load(key)
	obs.StoreReadUS.Observe(obs.SinceUS(start))
	if err != nil {
		obs.StoreErrors.Add(1)
		return sim.Result{}, false
	}
	if !ok {
		obs.StoreMisses.Add(1)
		return sim.Result{}, false
	}
	obs.StoreHits.Add(1)
	return r, true
}

// storeSave writes a completed result back to this run's persistent
// store (if any). Failures are counted, never propagated: the
// simulation already succeeded.
func (o Options) storeSave(key string, r sim.Result) {
	st := o.Store
	if st == nil {
		return
	}
	start := time.Now()
	err := st.Save(key, r)
	obs.StoreWriteUS.Observe(obs.SinceUS(start))
	if err != nil {
		obs.StoreErrors.Add(1)
		return
	}
	obs.StoreWrites.Add(1)
}
