// Package tracefile writes the simulator's time series as CSV, so
// synthetic traces can be exported for external plotting.
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
