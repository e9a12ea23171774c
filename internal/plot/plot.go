// Package plot renders the evaluation's figures as standalone SVG
// files using only the standard library — the analogue of the paper
// artifact's plot_figures.sh, which emits Figure13.pdf through
// Figure17.pdf.
//
// Two chart shapes cover every figure in the paper: grouped bar charts
// (per-application speedups/MPKI with one bar per series) and line
// charts (parameter sweeps with one line per application).
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named sequence of Y values.
type Series struct {
	Name   string
	Values []float64
}

// Chart is a renderable figure.
type Chart struct {
	Title  string
	YLabel string
	// XLabels name the categories (bar charts) or X tick values (line
	// charts).
	XLabels []string
	Series  []Series
	// Percent renders Y values as percentages.
	Percent bool
}

const (
	width      = 960
	height     = 420
	marginL    = 70
	marginR    = 170
	marginT    = 46
	marginB    = 70
	plotW      = width - marginL - marginR
	plotH      = height - marginT - marginB
	fontFamily = "system-ui, sans-serif"
)

// palette is a colorblind-friendly categorical palette.
var palette = []string{
	"#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE",
	"#AA3377", "#BBBBBB", "#222255", "#225555", "#663333",
}

func color(i int) string { return palette[i%len(palette)] }

// yRange computes padded bounds across all series, always including 0.
func (c *Chart) yRange() (lo, hi float64) {
	lo, hi = 0, 0
	for _, s := range c.Series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := (hi - lo) * 0.08
	return lo - pad*boolTo01(lo < 0), hi + pad
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (c *Chart) yToPx(v, lo, hi float64) float64 {
	return marginT + plotH*(1-(v-lo)/(hi-lo))
}

func (c *Chart) fmtY(v float64) string {
	if c.Percent {
		return fmt.Sprintf("%.0f%%", v*100)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2g", v)
}

// yTicks picks ~5 round tick values across the range.
func yTicks(lo, hi float64) []float64 {
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/5)))
	for span/step > 8 {
		step *= 2
	}
	for span/step < 3 {
		step /= 2
	}
	first := math.Ceil(lo/step) * step
	var ticks []float64
	for v := first; v <= hi+step/1e6; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

// frame renders the title, axes, gridlines and legend shared by both
// chart types.
func (c *Chart) frame(b *strings.Builder, lo, hi float64) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`, width, height)
	fmt.Fprintf(b, `<text x="%d" y="24" font-family="%s" font-size="16" font-weight="600">%s</text>`,
		marginL, fontFamily, escape(c.Title))

	// Gridlines + Y labels.
	for _, v := range yTicks(lo, hi) {
		y := c.yToPx(v, lo, hi)
		stroke := "#dddddd"
		if v == 0 {
			stroke = "#888888"
		}
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s"/>`,
			marginL, y, marginL+plotW, y, stroke)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" font-family="%s" font-size="11" text-anchor="end" dominant-baseline="middle">%s</text>`,
			marginL-6, y, fontFamily, c.fmtY(v))
	}
	if c.YLabel != "" {
		fmt.Fprintf(b, `<text x="14" y="%d" font-family="%s" font-size="12" transform="rotate(-90 14 %d)" text-anchor="middle">%s</text>`,
			marginT+plotH/2, fontFamily, marginT+plotH/2, escape(c.YLabel))
	}

	// Legend.
	ly := marginT
	for i, s := range c.Series {
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`,
			marginL+plotW+12, ly+i*20, color(i))
		fmt.Fprintf(b, `<text x="%d" y="%d" font-family="%s" font-size="11" dominant-baseline="middle">%s</text>`,
			marginL+plotW+30, ly+i*20+7, fontFamily, escape(s.Name))
	}
}

// Bars renders a grouped bar chart.
func Bars(c Chart) (string, error) {
	if err := c.validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	lo, hi := c.yRange()
	c.frame(&b, lo, hi)

	groups := len(c.XLabels)
	groupW := float64(plotW) / float64(groups)
	barW := groupW * 0.8 / float64(len(c.Series))
	zero := c.yToPx(0, lo, hi)

	for g := 0; g < groups; g++ {
		gx := marginL + float64(g)*groupW + groupW*0.1
		for si, s := range c.Series {
			v := s.Values[g]
			y := c.yToPx(v, lo, hi)
			top, h := y, zero-y
			if v < 0 {
				top, h = zero, y-zero
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s %s: %s</title></rect>`,
				gx+float64(si)*barW, top, barW*0.92, h, color(si),
				escape(c.XLabels[g]), escape(s.Name), c.fmtY(v))
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="%s" font-size="11" text-anchor="end" transform="rotate(-35 %.1f %d)">%s</text>`,
			gx+groupW*0.4, marginT+plotH+16, fontFamily, gx+groupW*0.4, marginT+plotH+16, escape(c.XLabels[g]))
	}
	b.WriteString("</svg>")
	return b.String(), nil
}

// Lines renders a multi-series line chart with categorical X positions.
func Lines(c Chart) (string, error) {
	if err := c.validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	lo, hi := c.yRange()
	c.frame(&b, lo, hi)

	n := len(c.XLabels)
	xAt := func(i int) float64 {
		if n == 1 {
			return marginL + float64(plotW)/2
		}
		return marginL + float64(plotW)*float64(i)/float64(n-1)
	}
	for i, lbl := range c.XLabels {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="%s" font-size="11" text-anchor="middle">%s</text>`,
			xAt(i), marginT+plotH+18, fontFamily, escape(lbl))
	}
	for si, s := range c.Series {
		var pts []string
		for i, v := range s.Values {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xAt(i), c.yToPx(v, lo, hi)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`,
			strings.Join(pts, " "), color(si))
		for i, v := range s.Values {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"><title>%s @ %s: %s</title></circle>`,
				xAt(i), c.yToPx(v, lo, hi), color(si),
				escape(s.Name), escape(c.XLabels[i]), c.fmtY(v))
		}
	}
	b.WriteString("</svg>")
	return b.String(), nil
}

func (c *Chart) validate() error {
	if len(c.Series) == 0 || len(c.XLabels) == 0 {
		return fmt.Errorf("plot: chart %q has no data", c.Title)
	}
	for _, s := range c.Series {
		if len(s.Values) != len(c.XLabels) {
			return fmt.Errorf("plot: series %q has %d values for %d labels",
				s.Name, len(s.Values), len(c.XLabels))
		}
	}
	return nil
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// FromSpeedupRows converts experiment speedup rows (app → series →
// value) into a bar chart with one series per name, in names' order; a
// series an app lacks plots as zero.
func FromSpeedupRows(title string, apps, names []string, rows map[string]map[string]float64) Chart {
	c := Chart{Title: title, YLabel: "IPC speedup", XLabels: apps, Percent: true}
	for _, nm := range names {
		s := Series{Name: nm}
		for _, app := range apps {
			s.Values = append(s.Values, rows[app][nm])
		}
		c.Series = append(c.Series, s)
	}
	return c
}
