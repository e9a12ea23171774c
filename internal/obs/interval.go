package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
)

// IntervalSample is one row of the per-interval time series: a
// snapshot of the machine's headline rates over the last Interval
// cycles plus running totals, stamped with the run tags so samples
// from many concurrently simulating machines can share one sink.
type IntervalSample struct {
	// Run tags (copied from the Observer). Config is the label of the
	// grid cell the machine simulates (empty outside the engine), so
	// two configurations of one workload and mechanism stay apart.
	Workload  string `json:"workload"`
	Mechanism string `json:"mechanism"`
	Config    string `json:"config"`
	Salt      uint64 `json:"salt"`

	// Cycle is the machine cycle at which the interval closed.
	Cycle uint64 `json:"cycle"`

	// Retired is the number of instructions retired in this interval;
	// RetiredTotal is the running post-warmup total. Summing Retired
	// over all samples of a run reproduces Result.Instructions.
	Retired      uint64 `json:"retired"`
	RetiredTotal uint64 `json:"retired_total"`

	// IPC is the interval-local retired/cycles ratio.
	IPC float64 `json:"ipc"`
	// IcacheMPKI is the interval-local icache demand misses per kilo
	// instruction (0 when no instruction retired this interval).
	IcacheMPKI float64 `json:"icache_mpki"`
	// FTQDepth is the logical FTQ capacity at sample time (the knob
	// UFTQ tunes); FTQOcc is the instantaneous occupancy.
	FTQDepth int `json:"ftq_depth"`
	FTQOcc   int `json:"ftq_occ"`
	// Accuracy is the interval-local prefetch accuracy (useful /
	// emitted), NaN-free: 0 when nothing was emitted.
	Accuracy float64 `json:"accuracy"`
	// Emitted is the number of prefetches emitted this interval.
	Emitted uint64 `json:"emitted"`

	// Memory-system pressure over this interval (request-based
	// hierarchy). DRAMQueueCycles is the total cycles requests waited
	// behind the busy DRAM channel; FillQueueCycles the same for the
	// per-level fill ports; DemandRetries counts demand requests
	// rejected under MSHR pressure (each retried the next cycle);
	// PrefetchDrops counts prefetches dropped under MSHR pressure.
	DRAMQueueCycles uint64 `json:"dram_queue_cycles"`
	FillQueueCycles uint64 `json:"fill_queue_cycles"`
	DemandRetries   uint64 `json:"demand_retries"`
	PrefetchDrops   uint64 `json:"prefetch_drops"`
}

// csvHeader is the column order of the CSV metrics format.
var csvHeader = []string{
	"workload", "mechanism", "config", "salt", "cycle",
	"retired", "retired_total", "ipc", "icache_mpki",
	"ftq_depth", "ftq_occ", "accuracy", "emitted",
	"dram_queue_cycles", "fill_queue_cycles", "demand_retries", "prefetch_drops",
}

// CSVRecord renders the sample as CSV fields in csvHeader order.
func (s IntervalSample) CSVRecord() []string {
	return []string{
		s.Workload, s.Mechanism, s.Config,
		fmt.Sprintf("%d", s.Salt), fmt.Sprintf("%d", s.Cycle),
		fmt.Sprintf("%d", s.Retired), fmt.Sprintf("%d", s.RetiredTotal),
		fmt.Sprintf("%.6f", s.IPC), fmt.Sprintf("%.6f", s.IcacheMPKI),
		fmt.Sprintf("%d", s.FTQDepth), fmt.Sprintf("%d", s.FTQOcc),
		fmt.Sprintf("%.6f", s.Accuracy), fmt.Sprintf("%d", s.Emitted),
		fmt.Sprintf("%d", s.DRAMQueueCycles), fmt.Sprintf("%d", s.FillQueueCycles),
		fmt.Sprintf("%d", s.DemandRetries), fmt.Sprintf("%d", s.PrefetchDrops),
	}
}

// MetricsFormat selects the on-disk encoding of a MetricsWriter.
type MetricsFormat int

const (
	// FormatCSV writes a header row then one comma-separated row per
	// sample.
	FormatCSV MetricsFormat = iota
	// FormatJSONL writes one JSON object per line.
	FormatJSONL
)

// FormatForPath picks CSV for .csv paths and JSONL for .jsonl/.json,
// defaulting to CSV.
func FormatForPath(path string) MetricsFormat {
	switch {
	case strings.HasSuffix(path, ".jsonl"), strings.HasSuffix(path, ".json"):
		return FormatJSONL
	default:
		return FormatCSV
	}
}

// MetricsWriter serializes interval samples from concurrently running
// machines into one CSV or JSONL stream. All methods are safe for
// concurrent use; wrap Write in an Observer's OnSample to stream a
// live time series during long sweeps.
type MetricsWriter struct {
	mu      sync.Mutex
	w       io.Writer
	format  MetricsFormat
	wroteHd bool
	err     error
	rows    uint64
}

// NewMetricsWriter wraps w. The header row (CSV) is emitted lazily on
// the first sample.
func NewMetricsWriter(w io.Writer, format MetricsFormat) *MetricsWriter {
	return &MetricsWriter{w: w, format: format}
}

// Write appends one sample. The first error is sticky and returned by
// every subsequent call (and by Err).
func (m *MetricsWriter) Write(s IntervalSample) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	switch m.format {
	case FormatJSONL:
		b, err := json.Marshal(s)
		if err != nil {
			m.err = err
			return err
		}
		b = append(b, '\n')
		if _, err := m.w.Write(b); err != nil {
			m.err = err
			return err
		}
	default:
		if !m.wroteHd {
			if _, err := io.WriteString(m.w, strings.Join(csvHeader, ",")+"\n"); err != nil {
				m.err = err
				return err
			}
			m.wroteHd = true
		}
		if _, err := io.WriteString(m.w, strings.Join(s.CSVRecord(), ",")+"\n"); err != nil {
			m.err = err
			return err
		}
	}
	m.rows++
	return nil
}

// Rows returns how many samples have been written.
func (m *MetricsWriter) Rows() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rows
}

// Err returns the sticky first write error, if any.
func (m *MetricsWriter) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// DefaultInterval is the sampling interval, in cycles, of a
// -metrics-out run whose -interval is zero.
const DefaultInterval = 10_000

// MetricsFile is the file behind a CLI's -metrics-out flag: a
// MetricsWriter over a created file. A nil *MetricsFile (no flag)
// closes to nil.
type MetricsFile struct {
	*MetricsWriter
	f *os.File
}

// CreateMetricsFile creates the -metrics-out file at path, in the
// format its extension names (FormatForPath), and defaults *interval
// to DefaultInterval when it is zero. An empty path returns nil and
// leaves *interval alone.
func CreateMetricsFile(path string, interval *uint64) (*MetricsFile, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if *interval == 0 {
		*interval = DefaultInterval
	}
	return &MetricsFile{MetricsWriter: NewMetricsWriter(f, FormatForPath(path)), f: f}, nil
}

// Sample writes s, in the shape of an OnSample callback. A failed
// write sticks, and Close reports it.
func (m *MetricsFile) Sample(s IntervalSample) { _ = m.Write(s) }

// Close reports the first write error, closes the file and logs how
// many rows it holds.
func (m *MetricsFile) Close(log *slog.Logger) error {
	if m == nil {
		return nil
	}
	if err := errors.Join(m.Err(), m.f.Close()); err != nil {
		return err
	}
	log.Info("metrics written", "path", m.f.Name(), "rows", m.Rows())
	return nil
}
