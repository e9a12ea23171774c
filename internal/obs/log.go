package obs

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"sync"
)

// NewLogger builds the structured progress logger shared by the cmds:
// slog text output to w, debug level when verbose. Replaces the old
// ad-hoc fmt.Fprintf(os.Stderr, ...) progress lines.
func NewLogger(w io.Writer, verbose bool) *slog.Logger {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// metricsOnce guards /metrics registration on the default mux: cmds
// may call ServeDebug more than once across tests, and http.HandleFunc
// panics on duplicate patterns.
var metricsOnce sync.Once

// RegisterMetricsHandler mounts the process-wide Metrics registry at
// /metrics on the default mux (idempotent).
func RegisterMetricsHandler() {
	metricsOnce.Do(func() {
		http.Handle("/metrics", Metrics.Handler())
	})
}

// ServeDebug starts the live diagnostics HTTP server on addr (e.g.
// ":6060") in a background goroutine and returns the bound address and
// a stop function. The default mux carries /debug/pprof (CPU/heap/
// goroutine profiles of a long sweep) and /metrics (Prometheus text
// exposition of the Metrics registry: the experiment engine's
// result-cache hit rates and grid-cell progress among them). Returns an error only if the listener cannot be
// opened; serving errors after startup are logged and dropped. The
// stop function closes the listener and waits for the serve goroutine
// to exit, so tests and short-lived cmds don't leak either.
func ServeDebug(addr string, log *slog.Logger) (string, func(), error) {
	RegisterMetricsHandler()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := http.Serve(ln, nil) // default mux: pprof + metrics
		if log != nil {
			log.Debug("debug server exited", "addr", ln.Addr().String(), "err", err)
		}
	}()
	if log != nil {
		log.Info("debug server listening",
			"pprof", "http://"+ln.Addr().String()+"/debug/pprof/",
			"metrics", "http://"+ln.Addr().String()+"/metrics")
	}
	stop := func() {
		ln.Close()
		<-done
	}
	return ln.Addr().String(), stop, nil
}
