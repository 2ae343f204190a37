package report

import (
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func sample() *metrics.Table {
	t := &metrics.Table{Title: "Fig X <demo>", Labels: []string{"A", "B", "C"}}
	t.Add("GRR-Rain", []float64{1.5, 2.0, 1.0})
	t.Add("GWtMin-Strings", []float64{3.2, 4.1, 2.2})
	return t
}

func TestBarChartWellFormed(t *testing.T) {
	svg := BarChart(sample())
	if err := xml.Unmarshal([]byte(svg), new(interface{})); err != nil {
		t.Fatalf("SVG is not well-formed XML: %v", err)
	}
	// 2 series × 3 groups of bars plus the legend swatches (2).
	if got := strings.Count(svg, "<rect"); got != 8 {
		t.Fatalf("rect count = %d, want 8", got)
	}
	if !strings.Contains(svg, "&lt;demo&gt;") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(svg, "GWtMin-Strings / B: 4.100") {
		t.Fatal("tooltips missing")
	}
}

func TestBarChartEmptyAndNegative(t *testing.T) {
	empty := &metrics.Table{Title: "empty"}
	svg := BarChart(empty)
	if err := xml.Unmarshal([]byte(svg), new(interface{})); err != nil {
		t.Fatalf("empty chart invalid: %v", err)
	}
	neg := &metrics.Table{Title: "neg", Labels: []string{"x"}}
	neg.Add("s", []float64{-5})
	svg = BarChart(neg)
	if strings.Contains(svg, `height="-`) {
		t.Fatal("negative bar height emitted")
	}
}

func TestBarChartShortSeriesPadded(t *testing.T) {
	tb := &metrics.Table{Title: "t", Labels: []string{"a", "b"},
		Series: []metrics.Series{{Name: "s", Values: []float64{1}}}} // shorter than labels
	svg := BarChart(tb)
	if err := xml.Unmarshal([]byte(svg), new(interface{})); err != nil {
		t.Fatalf("padded chart invalid: %v", err)
	}
}

func TestPageRenderAndWrite(t *testing.T) {
	p := NewPage("Strings reproduction <report>")
	p.AddTable(sample())
	p.AddPre("Fig 2", "sequential |███|\nconcurrent |█  |")
	doc := p.Render()
	for _, want := range []string{
		"<!DOCTYPE html>", "&lt;report&gt;", "<svg", "numbers", "sequential",
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("document missing %q", want)
		}
	}
	path := filepath.Join(t.TempDir(), "r.html")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("written file: %v, %d bytes", err, len(data))
	}
}
