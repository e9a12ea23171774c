package workload

import (
	"fmt"
	"sync"

	"udpsim/internal/isa"
)

// A Stream produces the architectural (on-path) dynamic instruction
// stream, one record per call. Both the synthetic Executor and trace
// replayers satisfy it; the frontend's oracle consumes it (structurally,
// as frontend.InstrSource) without knowing which implementation it got.
type Stream interface {
	Next() isa.DynInstr
}

// A Source is a complete workload identity: a static program image the
// frontend walks, a factory for the dynamic stream the backend retires,
// and a stable key the caches shard on. Its implementation is
// trace.Source (a self-contained UDPT2 recording, keyed by content
// hash); synthetic workloads need no Source, since the sim layer takes
// their image from its process-wide image cache and streams from a live
// Executor.
type Source interface {
	// Name is the human-facing workload label (Result.Workload etc).
	Name() string
	// Key is the canonical cache identity: trace sources use "trace:" +
	// SHA-256 of the trace file content, consistent with the
	// content-addressed result store.
	Key() string
	// Image returns the static program image (shared; callers must not
	// mutate).
	Image() (*Program, error)
	// Stream returns a fresh dynamic instruction stream for the given
	// seed salt. Trace sources accept only the salt they were recorded
	// at.
	Stream(seedSalt uint64) (Stream, error)
}

// --- process-wide source registry ---
//
// Trace sources are loaded from files by whoever holds the file (a cmd
// main, the daemon's submit handler) and registered here; the sim layer
// then resolves Config.TraceRef → Source without importing the trace
// package (which imports workload — the registry breaks the cycle).

var (
	srcMu     sync.RWMutex
	srcByKey  = map[string]Source{}
	srcByName = map[string]Source{}
)

// RegisterSource publishes a source under both its Key and Name.
// Re-registering the same key replaces the entry (idempotent for
// content-identical traces).
func RegisterSource(s Source) {
	srcMu.Lock()
	defer srcMu.Unlock()
	srcByKey[s.Key()] = s
	srcByName[s.Name()] = s
}

// SourceByKey resolves a registered source by cache key
// (e.g. "trace:<sha256>").
func SourceByKey(key string) (Source, bool) {
	srcMu.RLock()
	defer srcMu.RUnlock()
	s, ok := srcByKey[key]
	return s, ok
}

// SourceByName resolves a registered source by workload name.
func SourceByName(name string) (Source, bool) {
	srcMu.RLock()
	defer srcMu.RUnlock()
	s, ok := srcByName[name]
	return s, ok
}

// MustSourceByKey is SourceByKey or panic, for paths where the caller
// already validated registration.
func MustSourceByKey(key string) Source {
	s, ok := SourceByKey(key)
	if !ok {
		panic(fmt.Sprintf("workload: source %q not registered", key))
	}
	return s
}
