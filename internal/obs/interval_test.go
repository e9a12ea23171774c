package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFormatForPath(t *testing.T) {
	cases := map[string]MetricsFormat{
		"m.csv":      FormatCSV,
		"m.jsonl":    FormatJSONL,
		"m.json":     FormatJSONL,
		"m.txt":      FormatCSV,
		"no-suffix":  FormatCSV,
		"dir/m.json": FormatJSONL,
	}
	for path, want := range cases {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %v, want %v", path, got, want)
		}
	}
}

func sampleFixture(cycle uint64) IntervalSample {
	return IntervalSample{
		Workload: "mysql", Mechanism: "udp", Config: "ftq32", Salt: 7,
		Cycle: cycle, Retired: 9000, RetiredTotal: cycle,
		IPC: 0.9, IcacheMPKI: 24.5, FTQDepth: 32, FTQOcc: 17,
		Accuracy: 0.75, Emitted: 120,
	}
}

func TestMetricsWriterCSV(t *testing.T) {
	var buf bytes.Buffer
	w := NewMetricsWriter(&buf, FormatCSV)
	for _, cycle := range []uint64{10_000, 20_000} {
		if err := w.Write(sampleFixture(cycle)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if got := w.Rows(); got != 2 {
		t.Fatalf("Rows = %d, want 2", got)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(recs) != 3 { // header + 2 rows
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if got := strings.Join(recs[0], ","); got != strings.Join(csvHeader, ",") {
		t.Errorf("header = %q", got)
	}
	if len(recs[1]) != len(csvHeader) {
		t.Fatalf("row width %d != header width %d", len(recs[1]), len(csvHeader))
	}
	if recs[1][0] != "mysql" || recs[1][1] != "udp" || recs[1][2] != "ftq32" || recs[1][3] != "7" || recs[1][4] != "10000" {
		t.Errorf("row 1 = %v", recs[1])
	}
}

func TestMetricsWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := NewMetricsWriter(&buf, FormatJSONL)
	in := sampleFixture(10_000)
	if err := w.Write(in); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var out IntervalSample
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("JSONL row does not round-trip: %v", err)
	}
	if out != in {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestMetricsWriterStickyError(t *testing.T) {
	w := NewMetricsWriter(&failAfter{n: 0}, FormatCSV)
	if err := w.Write(sampleFixture(1)); err == nil {
		t.Fatal("expected write error")
	}
	if err := w.Err(); err == nil {
		t.Fatal("Err() should report the sticky error")
	}
	if err := w.Write(sampleFixture(2)); err == nil {
		t.Fatal("subsequent Write should return the sticky error")
	}
	if got := w.Rows(); got != 0 {
		t.Fatalf("Rows = %d after failed writes, want 0", got)
	}
}

// TestMetricsWriterConcurrent hammers one writer from many goroutines —
// the fan-in path used when concurrently swept machines share a sink.
// Run under -race this doubles as the sampler's data-race guard.
func TestMetricsWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewMetricsWriter(&buf, FormatCSV)
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := sampleFixture(uint64(g*perG + i))
				if err := w.Write(s); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.Rows(); got != goroutines*perG {
		t.Fatalf("Rows = %d, want %d", got, goroutines*perG)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("interleaved output is not valid CSV: %v", err)
	}
	if len(recs) != goroutines*perG+1 {
		t.Fatalf("records = %d, want %d", len(recs), goroutines*perG+1)
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

// TestCreateMetricsFile checks the -metrics-out opener: no path means
// no file and an untouched interval; a path defaults a zero interval,
// and Close leaves every sample in the file.
func TestCreateMetricsFile(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	var interval uint64
	if m, err := CreateMetricsFile("", &interval); m != nil || err != nil || interval != 0 {
		t.Fatalf("empty path: %v, %v, interval %d", m, err, interval)
	}
	if err := (*MetricsFile)(nil).Close(log); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	path := filepath.Join(t.TempDir(), "m.jsonl")
	m, err := CreateMetricsFile(path, &interval)
	if err != nil {
		t.Fatal(err)
	}
	if interval != DefaultInterval {
		t.Errorf("interval = %d, want %d", interval, DefaultInterval)
	}
	m.Sample(sampleFixture(10_000))
	if err := m.Close(log); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got IntervalSample
	if err := json.Unmarshal(data, &got); err != nil || got != sampleFixture(10_000) {
		t.Errorf("file holds %q (%v), want the one sample as JSON", data, err)
	}
}
