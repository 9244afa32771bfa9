package tracefile

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"powerroute/internal/market"
	"powerroute/internal/timeseries"
)

// hardValues are float64s whose shortest decimal forms are easy to get
// wrong: repeating fractions, signed zero, the smallest subnormal, the
// largest finite value and an exponent-form integer.
var hardValues = []float64{0.1, 1.0 / 3, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 43.75, 1e21}

// checkCSV checks a writer's output line by line: header first, then one
// line per row whose timestamp is RFC 3339 in UTC at start + i·step and
// whose value cells parse back to rows[i]'s exact bits.
func checkCSV(t *testing.T, out, header string, start time.Time, step time.Duration, rows [][]float64) {
	t.Helper()
	lines, ok := strings.CutSuffix(out, "\n")
	if !ok {
		t.Fatalf("output does not end in a newline")
	}
	rowLines := strings.Split(lines, "\n")
	if rowLines[0] != header {
		t.Fatalf("header %q, want %q", rowLines[0], header)
	}
	rowLines = rowLines[1:]
	if len(rowLines) != len(rows) {
		t.Fatalf("%d rows, want %d", len(rowLines), len(rows))
	}
	for i, line := range rowLines {
		cells := strings.Split(line, ",")
		if len(cells) != 1+len(rows[i]) {
			t.Fatalf("row %d %q: %d cells, want %d", i, line, len(cells), 1+len(rows[i]))
		}
		at, err := time.Parse(time.RFC3339, cells[0])
		if err != nil || !strings.HasSuffix(cells[0], "Z") {
			t.Fatalf("row %d: timestamp %q is not RFC 3339 UTC (%v)", i, cells[0], err)
		}
		if want := start.Add(time.Duration(i) * step); !at.Equal(want) {
			t.Fatalf("row %d: timestamp %v, want %v", i, at, want.UTC())
		}
		for j, cell := range cells[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %d col %d: %v", i, j, err)
			}
			if math.Float64bits(v) != math.Float64bits(rows[i][j]) {
				t.Fatalf("row %d col %d: %q parses to %v, want the bits of %v", i, j, cell, v, rows[i][j])
			}
		}
	}
}

// column turns a series' values into one-cell rows.
func column(values []float64) [][]float64 {
	rows := make([][]float64, len(values))
	for i, v := range values {
		rows[i] = []float64{v}
	}
	return rows
}

// est is a zone other than UTC: the writers must convert out of it.
var est = time.FixedZone("EST", -5*3600)

// TestSeriesRoundTrip: every value written survives its text form bit for
// bit, and timestamps are written in UTC whatever the series' zone.
func TestSeriesRoundTrip(t *testing.T) {
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, est)
	s := &timeseries.Series{Start: start, Step: timeseries.Hourly, Values: make([]float64, 48)}
	for i := range s.Values {
		s.Values[i] = float64(i) / 7
	}
	copy(s.Values, hardValues)
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s, "price"); err != nil {
		t.Fatal(err)
	}
	if want := "timestamp,price\n2006-01-01T05:00:00Z,0.1\n2006-01-01T06:00:00Z,0.3333333333333333\n"; !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("output does not start with %q:\n%s", want, buf.String())
	}
	checkCSV(t, buf.String(), "timestamp,price", start, timeseries.Hourly, column(s.Values))
}

// TestSeriesRoundTripMarketData: a generated hourly series exports
// bit-exactly.
func TestSeriesRoundTripMarketData(t *testing.T) {
	d := market.MustGenerate(market.Config{Seed: 1, Months: 1})
	rt, err := d.RT("NYC")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, rt, "rt_price_usd_per_mwh"); err != nil {
		t.Fatal(err)
	}
	checkCSV(t, buf.String(), "timestamp,rt_price_usd_per_mwh", rt.Start, timeseries.Hourly, column(rt.Values))
}

// TestDemandRoundTrip: one column per entity in the given order, one row
// per sample at the trace's step, every cell bit-exact.
func TestDemandRoundTrip(t *testing.T) {
	d := &Demand{
		Start:   time.Date(2008, 12, 18, 19, 0, 0, 0, est),
		Step:    timeseries.FiveMinute,
		Columns: []string{"CA", "NY", "TX"},
		Rows: [][]float64{
			{100, 200, 300},
			hardValues[:3],
			hardValues[3:6],
			{120.5, hardValues[6], 320},
		},
	}
	var buf bytes.Buffer
	if err := WriteDemand(&buf, d); err != nil {
		t.Fatal(err)
	}
	if want := "timestamp,CA,NY,TX\n2008-12-19T00:00:00Z,100,200,300\n2008-12-19T00:05:00Z,"; !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("output does not start with %q:\n%s", want, buf.String())
	}
	checkCSV(t, buf.String(), "timestamp,CA,NY,TX", d.Start, d.Step, d.Rows)
}

func TestWriteDemandRaggedRows(t *testing.T) {
	d := &Demand{
		Start:   time.Now(),
		Step:    time.Minute,
		Columns: []string{"a", "b"},
		Rows:    [][]float64{{1}},
	}
	var buf bytes.Buffer
	if err := WriteDemand(&buf, d); err == nil {
		t.Error("ragged rows should fail")
	}
}
