// Package tracefile reads and writes the simulator's time series as CSV,
// so synthetic traces can be exported for external plotting. ReadSeries
// and ReadDemand parse the formats back, but no simulator input calls
// them: the world is always generated from its seed.
//
// Price CSV format (hourly or daily):
//
//	timestamp,price
//	2006-01-01T00:00:00Z,43.75
//
// Demand CSV format (5-minute, one column per state):
//
//	timestamp,AL,AK,AZ,...
//	2008-12-19T00:00:00Z,1201.5,88.2,...
package tracefile

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"powerroute/internal/timeseries"
)

// timeLayout is RFC 3339 UTC with second precision.
const timeLayout = time.RFC3339

// WriteSeries emits a series as a two-column CSV.
func WriteSeries(w io.Writer, s *timeseries.Series, valueHeader string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", valueHeader}); err != nil {
		return err
	}
	for i, v := range s.Values {
		if err := cw.Write([]string{
			s.TimeAt(i).UTC().Format(timeLayout),
			strconv.FormatFloat(v, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSeries parses a two-column CSV back into a series. The sampling step
// is inferred from the first two rows and every subsequent timestamp must
// follow it exactly (the simulator requires dense regular series).
func ReadSeries(r io.Reader) (*timeseries.Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	if len(rows) < 3 { // header + at least two samples
		return nil, fmt.Errorf("tracefile: need at least two samples, got %d rows", len(rows))
	}
	rows = rows[1:] // drop header
	times := make([]time.Time, len(rows))
	values := make([]float64, len(rows))
	for i, row := range rows {
		at, err := time.Parse(timeLayout, row[0])
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d: %w", i+2, err)
		}
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d: %w", i+2, err)
		}
		times[i] = at.UTC()
		values[i] = v
	}
	step := times[1].Sub(times[0])
	if step <= 0 {
		return nil, fmt.Errorf("tracefile: non-increasing timestamps")
	}
	for i := 1; i < len(times); i++ {
		if times[i].Sub(times[i-1]) != step {
			return nil, fmt.Errorf("tracefile: irregular step at row %d", i+2)
		}
	}
	return timeseries.FromValues(times[0], step, values), nil
}

// Demand is a multi-column demand trace: one series of per-entity values
// (e.g. per state) sampled at a fixed step.
type Demand struct {
	Start   time.Time
	Step    time.Duration
	Columns []string
	// Rows[i][j] is the value of column j at sample i.
	Rows [][]float64
}

// WriteDemand emits a demand trace as CSV.
func WriteDemand(w io.Writer, d *Demand) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"timestamp"}, d.Columns...)); err != nil {
		return err
	}
	row := make([]string, 1+len(d.Columns))
	for i, values := range d.Rows {
		if len(values) != len(d.Columns) {
			return fmt.Errorf("tracefile: row %d has %d values for %d columns", i, len(values), len(d.Columns))
		}
		row[0] = d.Start.Add(time.Duration(i) * d.Step).UTC().Format(timeLayout)
		for j, v := range values {
			row[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadDemand parses a demand CSV.
func ReadDemand(r io.Reader) (*Demand, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	if len(rows) < 3 {
		return nil, fmt.Errorf("tracefile: need at least two samples, got %d rows", len(rows))
	}
	header := rows[0]
	if len(header) < 2 || header[0] != "timestamp" {
		return nil, fmt.Errorf("tracefile: bad header %v", header)
	}
	d := &Demand{Columns: append([]string(nil), header[1:]...)}
	var prev time.Time
	for i, row := range rows[1:] {
		at, err := time.Parse(timeLayout, row[0])
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d: %w", i+2, err)
		}
		at = at.UTC()
		switch i {
		case 0:
			d.Start = at
		case 1:
			d.Step = at.Sub(prev)
			if d.Step <= 0 {
				return nil, fmt.Errorf("tracefile: non-increasing timestamps")
			}
		default:
			if at.Sub(prev) != d.Step {
				return nil, fmt.Errorf("tracefile: irregular step at row %d", i+2)
			}
		}
		prev = at
		values := make([]float64, len(d.Columns))
		for j, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("tracefile: row %d col %d: %w", i+2, j+1, err)
			}
			values[j] = v
		}
		d.Rows = append(d.Rows, values)
	}
	return d, nil
}

// ByColumn transposes the demand rows into per-column slices (the layout
// the simulation engine's TraceDemand adapter takes).
func (d *Demand) ByColumn() [][]float64 {
	out := make([][]float64, len(d.Columns))
	for j := range out {
		col := make([]float64, len(d.Rows))
		for i := range d.Rows {
			col[i] = d.Rows[i][j]
		}
		out[j] = col
	}
	return out
}
