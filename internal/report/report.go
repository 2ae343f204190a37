// Package report renders experiment results as a standalone HTML page with
// inline SVG bar charts — the figure-shaped view of the reproduction,
// built with the standard library only.
package report

import (
	"fmt"
	"html"
	"os"
	"strings"

	"repro/internal/metrics"
)

// palette holds the series colors (qualitative, print-safe).
var palette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// BarChart renders a grouped bar chart of the table as an SVG fragment.
// Values are clamped at zero (the experiment tables are ratios and
// percentages).
func BarChart(t *metrics.Table) string {
	const (
		width   = 960 // total SVG width
		height  = 360 // total SVG height
		marginL = 56
		marginR = 16
		marginT = 28
		marginB = 46
	)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

	maxV := 0.0
	for _, s := range t.Series {
		for _, v := range s.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	maxV *= 1.08

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`,
		width, height)
	fmt.Fprintf(&b, `<text x="%d" y="16" font-size="13" font-weight="bold">%s</text>`,
		marginL, html.EscapeString(t.Title))

	// Horizontal gridlines and y-axis ticks.
	ticks := 5
	for i := 0; i <= ticks; i++ {
		v := maxV * float64(i) / float64(ticks)
		y := marginT + plotH - plotH*float64(i)/float64(ticks)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			marginL, y, width-marginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" fill="#555">%.2f</text>`,
			marginL-6, y+4, v)
	}

	nGroups := len(t.Labels)
	nSeries := len(t.Series)
	if nGroups > 0 && nSeries > 0 {
		groupW := plotW / float64(nGroups)
		barW := groupW * 0.8 / float64(nSeries)
		for gi, lab := range t.Labels {
			gx := float64(marginL) + float64(groupW*float64(gi))
			for si, s := range t.Series {
				v := 0.0
				if gi < len(s.Values) {
					v = s.Values[gi]
				}
				if v < 0 {
					v = 0
				}
				h := plotH * v / maxV
				x := gx + float64(groupW*0.1) + float64(barW*float64(si))
				y := marginT + plotH - h
				fmt.Fprintf(&b,
					`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s / %s: %.3f</title></rect>`,
					x, y, barW, h, palette[si%len(palette)],
					html.EscapeString(s.Name), html.EscapeString(lab), v)
			}
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#333">%s</text>`,
				gx+float64(groupW/2), height-marginB+16, html.EscapeString(lab))
		}
	}

	// Legend.
	lx := marginL
	ly := height - 14
	for si, s := range t.Series {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`,
			lx, ly-9, palette[si%len(palette)])
		name := html.EscapeString(s.Name)
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#333">%s</text>`, lx+14, ly, name)
		lx += 20 + 7*len(s.Name)
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// Page assembles report sections into a standalone HTML document.
type Page struct {
	Title    string
	sections []string
}

// NewPage creates a report page.
func NewPage(title string) *Page { return &Page{Title: title} }

// AddTable appends a chart plus the numeric table.
func (p *Page) AddTable(t *metrics.Table) {
	var b strings.Builder
	b.WriteString(`<section>`)
	b.WriteString(BarChart(t))
	b.WriteString(`<details><summary>numbers</summary><pre>`)
	b.WriteString(html.EscapeString(t.Format()))
	b.WriteString(`</pre></details></section>`)
	p.sections = append(p.sections, b.String())
}

// AddPre appends a preformatted text block (utilization strips, notes).
func (p *Page) AddPre(title, text string) {
	p.sections = append(p.sections,
		fmt.Sprintf(`<section><h3>%s</h3><pre>%s</pre></section>`,
			html.EscapeString(title), html.EscapeString(text)))
}

// Render produces the full HTML document.
func (p *Page) Render() string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">")
	fmt.Fprintf(&b, "<title>%s</title>", html.EscapeString(p.Title))
	b.WriteString(`<style>
body { font-family: sans-serif; margin: 2em auto; max-width: 1040px; color: #222; }
section { margin-bottom: 2.2em; }
pre { background: #f7f7f7; padding: 0.8em; overflow-x: auto; font-size: 12px; }
details summary { cursor: pointer; color: #4e79a7; }
h1 { font-size: 20px; }
</style></head><body>`)
	fmt.Fprintf(&b, "<h1>%s</h1>", html.EscapeString(p.Title))
	for _, s := range p.sections {
		b.WriteString(s)
		b.WriteString("\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// WriteFile writes the rendered page to path.
func (p *Page) WriteFile(path string) error {
	return os.WriteFile(path, []byte(p.Render()), 0o644)
}
