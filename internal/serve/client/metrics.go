package client

// Prometheus text-exposition parsing — just enough for callers and
// tests to consume the daemon's /metrics without a Prometheus
// dependency: samples with labels.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MetricSample is one exposition line: a metric name, its label set
// (nil when unlabeled) and the sample value. Histogram series arrive
// as their underlying _bucket/_sum/_count samples.
type MetricSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the sample's value for a label key ("" when absent).
func (s MetricSample) Label(key string) string { return s.Labels[key] }

// ParseMetrics reads Prometheus text exposition format: comment lines
// (# HELP/# TYPE) are skipped, sample lines are decoded with label
// unescaping. Unparseable lines fail loudly — a scrape that half
// parses would silently drop series.
func ParseMetrics(r io.Reader) ([]MetricSample, error) {
	var out []MetricSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("client: metrics line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (MetricSample, error) {
	var s MetricSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		labels, tail, err := parseLabels(rest[i:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.Name, rest = rest[:sp], rest[sp:]
	}
	valStr := strings.Fields(rest)
	if len(valStr) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	// valStr[1], if present, is an optional timestamp — ignored.
	v, err := strconv.ParseFloat(valStr[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", valStr[0], err)
	}
	s.Value = v
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	return s, nil
}

// parseLabels decodes a {k="v",...} block starting at in[0] == '{' and
// returns the remainder of the line after the closing brace.
func parseLabels(in string) (map[string]string, string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label block in %q", in)
		}
		key := in[i : i+eq]
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		labels[key] = b.String()
	}
}

// MetricValue returns the value of the first sample matching name and
// every given label (extra labels on the sample are allowed). ok is
// false when no sample matches.
func MetricValue(samples []MetricSample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}
