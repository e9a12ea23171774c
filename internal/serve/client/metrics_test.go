package client

import (
	"math"
	"strings"
	"testing"
)

func TestParseMetrics(t *testing.T) {
	in := `# HELP up whether the target is up
# TYPE up gauge
up 1
plain_total 42 1700000000000
labeled_total{route="/v1/jobs",method="POST",code="202"} 7
escaped_total{path="a\\b\"c\nd"} 3
float_value 0.25
`
	samples, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5", len(samples))
	}
	if v, ok := MetricValue(samples, "up", nil); !ok || v != 1 {
		t.Fatalf("up = %v (present %v)", v, ok)
	}
	// Trailing timestamps are ignored, not parsed into the value.
	if v, ok := MetricValue(samples, "plain_total", nil); !ok || v != 42 {
		t.Fatalf("plain_total = %v (present %v), want 42", v, ok)
	}
	if v, ok := MetricValue(samples, "labeled_total",
		map[string]string{"route": "/v1/jobs", "code": "202"}); !ok || v != 7 {
		t.Fatalf("labeled_total subset-match = %v (present %v), want 7", v, ok)
	}
	if _, ok := MetricValue(samples, "labeled_total",
		map[string]string{"route": "/nope"}); ok {
		t.Fatal("label mismatch should not match")
	}
	// Escapes decode back to the raw label value.
	if v, ok := MetricValue(samples, "escaped_total",
		map[string]string{"path": "a\\b\"c\nd"}); !ok || v != 3 {
		t.Fatalf("escaped label round-trip = %v (present %v), want 3", v, ok)
	}
	if v, ok := MetricValue(samples, "float_value", nil); !ok || v != 0.25 {
		t.Fatalf("float_value = %v (present %v)", v, ok)
	}
}

func TestParseMetricsFailsLoudly(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"bad_value x\n",
		`unterminated{a="b 1` + "\n",
	} {
		if _, err := ParseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseMetrics(%q) should fail", bad)
		}
	}
}

// TestParseMetricsTable drives the parser across the format corners a
// real scrape produces, one case per corner.
func TestParseMetricsTable(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    []MetricSample
		wantErr bool
	}{
		{
			name: "bare counter",
			in:   "udpsim_cache_hits 42\n",
			want: []MetricSample{{Name: "udpsim_cache_hits", Value: 42}},
		},
		{
			name: "labeled sample",
			in:   `udpsimd_run_duration_us_bucket{mechanism="udp",le="1000"} 7` + "\n",
			want: []MetricSample{{Name: "udpsimd_run_duration_us_bucket",
				Labels: map[string]string{"mechanism": "udp", "le": "1000"}, Value: 7}},
		},
		{
			name: "comments and blanks skipped",
			in: "# HELP m helps\n# TYPE m counter\n\nm 1\n" +
				"# HELP m a CONFLICTING help string\nm 2\n",
			want: []MetricSample{{Name: "m", Value: 1}, {Name: "m", Value: 2}},
		},
		{
			name: "special float values",
			in:   "a NaN\nb +Inf\nc -12.5e3\n",
			want: []MetricSample{{Name: "a", Value: math.NaN()},
				{Name: "b", Value: math.Inf(1)}, {Name: "c", Value: -12500}},
		},
		{name: "no value", in: "just_a_name\n", wantErr: true},
		{name: "bad value", in: "m notanumber\n", wantErr: true},
		{name: "empty name", in: `{k="v"} 1` + "\n", wantErr: true},
		{name: "unterminated labels", in: `m{k="v" 1` + "\n", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseMetrics(strings.NewReader(tc.in))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseMetrics(%q) = %v, want error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseMetrics(%q): %v", tc.in, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d samples %v, want %d", len(got), got, len(tc.want))
			}
			for i := range got {
				w := tc.want[i]
				if got[i].Name != w.Name || !sameLabels(got[i].Labels, w.Labels) {
					t.Fatalf("sample %d = %+v, want %+v", i, got[i], w)
				}
				if math.IsNaN(w.Value) != math.IsNaN(got[i].Value) ||
					(!math.IsNaN(w.Value) && got[i].Value != w.Value) {
					t.Fatalf("sample %d value = %v, want %v", i, got[i].Value, w.Value)
				}
			}
		})
	}
}

func sameLabels(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// FuzzParseMetrics: arbitrary scrape text must never panic the parser,
// and every sample it returns is named.
func FuzzParseMetrics(f *testing.F) {
	f.Add("udpsim_cache_hits 42\n")
	f.Add(`udpsimd_run_duration_us_bucket{mechanism="udp",le="+Inf"} 5` + "\n")
	f.Add("# HELP m h\n# TYPE m counter\nm 1\nm 2\n")
	f.Add(`m{k="a\"b\\c\nd"} NaN 123456789` + "\n")
	f.Add("m{} 1\n")
	f.Add("{} 1\n")
	f.Add(`m{k="v"`)
	f.Fuzz(func(t *testing.T, in string) {
		samples, err := ParseMetrics(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, s := range samples {
			if s.Name == "" {
				t.Fatal("parsed sample with empty name")
			}
		}
	})
}
