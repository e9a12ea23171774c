package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"udpsim/internal/experiments"
)

// TestRenderGolden feeds fixed rows and series through both figure
// shapes and compares the printed table and the SVG byte for byte
// with goldens under testdata/.
func TestRenderGolden(t *testing.T) {
	speedups := []experiments.BarRow{
		{App: "mysql", Values: map[string]float64{"udp": 0.0123, "udp-infinite": 0.0456, "eip": -0.0071, "icache-40k": 0.0049}},
		{App: "xgboost", Values: map[string]float64{"udp": 0.1612, "udp-infinite": 0.2034, "eip": 0.0811, "icache-40k": 0.0302}},
	}
	// xgboost lacks udp-infinite: the table and the chart show it as 0.
	mpki := []experiments.BarRow{
		{App: "mysql", Values: map[string]float64{"baseline": 41.27, "udp": 30.55, "udp-infinite": 27.04, "eip": 35.96, "icache-40k": 38.13}},
		{App: "xgboost", Values: map[string]float64{"baseline": 12.81, "udp": 6.42, "eip": 9.97, "icache-40k": 11.05}},
	}
	lost := []experiments.BarRow{
		{App: "mysql", Values: map[string]float64{"baseline": 812.4, "udp": 640.5, "udp-infinite": 571.2, "eip": 702.9, "icache-40k": 760.0}},
		{App: "xgboost", Values: map[string]float64{"baseline": 231.6, "udp": 95.0, "udp-infinite": 80.49, "eip": 170.51, "icache-40k": 212.3}},
	}
	signed := []experiments.SweepSeries{
		{App: "mysql", X: experiments.UDPFTQSizes, Values: []float64{-0.0124, 0.0087, 0.0342, 0.0511}},
		{App: "xgboost", X: experiments.UDPFTQSizes, Values: []float64{0.0215, 0.1034, 0.1622, 0.1598}},
	}
	unsigned := []experiments.SweepSeries{
		{App: "mysql", X: experiments.FTQDepths, Values: []float64{0.912, 0.884, 0.851, 0.803, 0.771, 0.702, 0.655, 0.601, 0.574}},
		{App: "xgboost", X: experiments.FTQDepths, Values: []float64{0.981, 0.972, 0.960, 0.944, 0.921, 0.893, 0.866, 0.840, 0.8125}},
	}

	for _, tc := range []struct {
		golden string
		fig    int
		rows   []experiments.BarRow
		series []experiments.SweepSeries
	}{
		{golden: "speedup_bars", fig: 13, rows: speedups},
		{golden: "mpki_bars", fig: 14, rows: mpki},
		{golden: "lost_bars", fig: 15, rows: lost},
		{golden: "signed_sweep", fig: 17, series: signed},
		{golden: "unsigned_sweep", fig: 4, series: unsigned},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var f figure
			for _, g := range figures {
				if g.num == tc.fig {
					f = g
				}
			}
			var out bytes.Buffer
			var svg string
			var err error
			if tc.rows != nil {
				svg, err = f.renderBars(&out, tc.rows)
			} else {
				svg, err = f.renderSweep(&out, tc.series)
			}
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.golden+".txt", out.Bytes())
			compareGolden(t, tc.golden+".svg", []byte(svg))
		})
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden:\n got: %q\nwant: %q", name, got, want)
	}
}
