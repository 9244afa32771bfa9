// Package report renders experiment output: aligned text tables (the
// paper's tabular figures) and quick text charts (bars and histograms)
// for the figure-shaped results.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells beyond the header count are kept as-is.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row of formatted cells: each argument is rendered with %v
// unless it is a float64, which is rendered with %.4g.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	write := func(s string) error {
		n, err := io.WriteString(w, s)
		total += int64(n)
		return err
	}
	if t.Title != "" {
		if err := write(t.Title + "\n"); err != nil {
			return total, err
		}
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				b.WriteString(pad(c, widths[i]))
			} else {
				b.WriteString(c)
			}
		}
		return strings.TrimRight(b.String(), " ") + "\n"
	}
	if len(t.Headers) > 0 {
		if err := write(line(t.Headers)); err != nil {
			return total, err
		}
		var b strings.Builder
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		if err := write(b.String() + "\n"); err != nil {
			return total, err
		}
	}
	for _, row := range t.Rows {
		if err := write(line(row)); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_, _ = t.WriteTo(&b)
	return b.String()
}

// pad right-pads s to width display runes.
func pad(s string, width int) string {
	n := utf8.RuneCountInString(s)
	if n >= width {
		return s
	}
	return s + strings.Repeat(" ", width-n)
}

// Bar renders value as a proportional bar of at most width characters
// against max. Negative values render with '<' characters.
func Bar(value, max float64, width int) string {
	if width <= 0 || max <= 0 {
		return ""
	}
	frac := math.Abs(value) / max
	if frac > 1 {
		frac = 1
	}
	n := int(math.Round(frac * float64(width)))
	if n == 0 && value != 0 {
		n = 1
	}
	ch := "#"
	if value < 0 {
		ch = "<"
	}
	return strings.Repeat(ch, n)
}

// Histogram renders a labeled fraction histogram, one bin per line.
func Histogram(w io.Writer, title string, labels []string, fractions []float64) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	maxF := 0.0
	for _, f := range fractions {
		if f > maxF {
			maxF = f
		}
	}
	width := 0
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	for i, f := range fractions {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		if _, err := fmt.Fprintf(w, "  %s %6.2f%% %s\n", pad(label, width), 100*f, Bar(f, maxF, 50)); err != nil {
			return err
		}
	}
	return nil
}

// Series renders an (x, y) series as aligned columns, a text stand-in for
// the paper's line plots.
func Series(w io.Writer, title, xLabel, yLabel string, xs, ys []float64) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %12s  %12s\n", xLabel, yLabel); err != nil {
		return err
	}
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "  %12.4g  %12.4g\n", xs[i], ys[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders values as a compact unicode block series.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
