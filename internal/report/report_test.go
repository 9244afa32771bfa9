package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Prices", "Hub", "Mean")
	tb.Add("NYC", "77.9")
	tb.Add("Chicago", "40.6")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "Prices" {
		t.Errorf("title line = %q", lines[0])
	}
	// The Mean column starts at the same offset in both data rows.
	if strings.Index(lines[3], "77.9") != strings.Index(lines[4], "40.6") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableAddf(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Addf(1.23456789, "x", 42)
	if tb.Rows[0][0] != "1.235" || tb.Rows[0][1] != "x" || tb.Rows[0][2] != "42" {
		t.Errorf("Addf row = %v", tb.Rows[0])
	}
}

func TestBar(t *testing.T) {
	if Bar(50, 100, 10) != "#####" {
		t.Errorf("Bar(50,100,10) = %q", Bar(50, 100, 10))
	}
	if Bar(-50, 100, 10) != "<<<<<" {
		t.Errorf("negative bar = %q", Bar(-50, 100, 10))
	}
	if Bar(1e9, 100, 10) != "##########" {
		t.Error("bar should clamp at width")
	}
	if Bar(0.0001, 100, 10) != "#" {
		t.Error("tiny nonzero values should show one mark")
	}
	if Bar(0, 100, 10) != "" {
		t.Error("zero value should be empty")
	}
	if Bar(5, 0, 10) != "" || Bar(5, 10, 0) != "" {
		t.Error("degenerate inputs should be empty")
	}
}

func TestHistogram(t *testing.T) {
	var buf bytes.Buffer
	err := Histogram(&buf, "Durations", []string{"1h", "2h"}, []float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Durations") || !strings.Contains(out, "50.00%") {
		t.Errorf("histogram output: %q", out)
	}
}

func TestSeries(t *testing.T) {
	var buf bytes.Buffer
	err := Series(&buf, "Cost vs distance", "km", "cost", []float64{0, 500}, []float64{1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "km") || !strings.Contains(buf.String(), "0.9") {
		t.Errorf("series output: %q", buf.String())
	}
	// Mismatched lengths truncate instead of panicking.
	buf.Reset()
	if err := Series(&buf, "t", "x", "y", []float64{1, 2, 3}, []float64{1}); err != nil {
		t.Fatal(err)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline runes = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Error("flat sparkline length wrong")
	}
}
