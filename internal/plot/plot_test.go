package plot

import (
	"strings"
	"testing"
)

func chart() Chart {
	return Chart{
		Title:   "Figure X — test",
		YLabel:  "speedup",
		XLabels: []string{"mysql", "xgboost", "verilator"},
		Series: []Series{
			{Name: "udp", Values: []float64{0.01, 0.16, -0.02}},
			{Name: "eip", Values: []float64{0.00, 0.02, 0.01}},
		},
		Percent: true,
	}
}

func TestBarsRendersAllData(t *testing.T) {
	svg, err := Bars(chart())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	// 3 groups × 2 series = 6 bars plus the background rect and legend
	// swatches.
	if got := strings.Count(svg, "<rect"); got < 6+1+2 {
		t.Errorf("%d rects", got)
	}
	for _, want := range []string{"mysql", "xgboost", "verilator", "udp", "eip", "Figure X"} {
		if !strings.Contains(svg, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestLinesRendersAllData(t *testing.T) {
	c := chart()
	c.XLabels = []string{"8", "16", "32"}
	svg, err := Lines(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(svg, "<polyline"); got != 2 {
		t.Errorf("%d polylines", got)
	}
	if got := strings.Count(svg, "<circle"); got != 6 {
		t.Errorf("%d markers", got)
	}
}

func TestNegativeValuesBarBelowAxis(t *testing.T) {
	c := Chart{
		Title:   "neg",
		XLabels: []string{"a"},
		Series:  []Series{{Name: "s", Values: []float64{-0.5}}},
	}
	svg, err := Bars(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "s: -0.5") && !strings.Contains(svg, "-50%") {
		// tooltip carries the value either way
		if !strings.Contains(svg, "-0.5") {
			t.Error("negative value lost")
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Bars(Chart{Title: "empty"}); err == nil {
		t.Error("empty chart accepted")
	}
	c := chart()
	c.Series[0].Values = c.Series[0].Values[:1]
	if _, err := Bars(c); err == nil {
		t.Error("ragged series accepted")
	}
	if _, err := Lines(c); err == nil {
		t.Error("ragged series accepted by Lines")
	}
}

func TestEscape(t *testing.T) {
	c := Chart{
		Title:   `<&"> injection`,
		XLabels: []string{"a<b"},
		Series:  []Series{{Name: "s&t", Values: []float64{1}}},
	}
	svg, err := Bars(c)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, `<&">`) || strings.Contains(svg, "a<b") {
		t.Error("unescaped markup")
	}
	if !strings.Contains(svg, "a&lt;b") {
		t.Error("escaping lost the label")
	}
}

func TestYTicksReasonable(t *testing.T) {
	ticks := yTicks(-0.1, 0.5)
	if len(ticks) < 3 || len(ticks) > 12 {
		t.Errorf("tick count %d: %v", len(ticks), ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Error("ticks not ascending")
		}
	}
}

func TestFromSpeedupRows(t *testing.T) {
	rows := map[string]map[string]float64{
		"mysql":   {"udp": 0.01, "eip": 0.0},
		"xgboost": {"udp": 0.16},
	}
	c := FromSpeedupRows("F", []string{"mysql", "xgboost"}, []string{"udp", "eip"}, rows)
	if len(c.Series) != 2 || len(c.XLabels) != 2 {
		t.Fatalf("chart shape: %+v", c)
	}
	// Series follow the given names' order, not their sorted order.
	if c.Series[0].Name != "udp" || c.Series[1].Name != "eip" {
		t.Errorf("series order: %v, %v", c.Series[0].Name, c.Series[1].Name)
	}
	if c.Series[0].Values[1] != 0.16 {
		t.Error("value misplaced")
	}
	if c.Series[1].Values[1] != 0 {
		t.Error("missing value not zero-filled")
	}
	if _, err := Bars(c); err != nil {
		t.Fatal(err)
	}
}

func TestSingleXLabelLines(t *testing.T) {
	c := Chart{Title: "one", XLabels: []string{"x"},
		Series: []Series{{Name: "s", Values: []float64{2}}}}
	if _, err := Lines(c); err != nil {
		t.Fatal(err)
	}
}
