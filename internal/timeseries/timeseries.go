// Package timeseries provides the time-indexed sample containers used for
// electricity prices (hourly and 5-minute, §3) and CDN traffic (5-minute,
// §4), plus the grouping operations the paper's figures need: daily
// averages (Fig 3), month buckets (Fig 11), and hour-of-day buckets
// (Fig 12).
//
// A Series is a start instant, a fixed step, and a dense []float64. All
// times are UTC; callers that need local-time grouping pass a geo.TimeZone
// style offset through the grouping helpers.
package timeseries

import (
	"errors"
	"fmt"
	"time"
)

// Common steps.
const (
	Hourly     = time.Hour
	FiveMinute = 5 * time.Minute
	Daily      = 24 * time.Hour
)

// Series is a regularly sampled time series.
type Series struct {
	Start  time.Time // instant of Values[0] (UTC)
	Step   time.Duration
	Values []float64
}

// New creates a Series with the given geometry and all-zero values.
func New(start time.Time, step time.Duration, n int) *Series {
	return &Series{Start: start.UTC(), Step: step, Values: make([]float64, n)}
}

// FromValues wraps an existing slice (not copied).
func FromValues(start time.Time, step time.Duration, values []float64) *Series {
	return &Series{Start: start.UTC(), Step: step, Values: values}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// End returns the instant one step past the final sample.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// TimeAt returns the instant of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the sample index covering instant t, or an error when t
// is outside the series.
func (s *Series) IndexOf(t time.Time) (int, error) {
	d := t.Sub(s.Start)
	if d < 0 {
		return 0, fmt.Errorf("timeseries: %v precedes series start %v", t, s.Start)
	}
	i := int(d / s.Step)
	if i >= len(s.Values) {
		return 0, fmt.Errorf("timeseries: %v past series end %v", t, s.End())
	}
	return i, nil
}

// At returns the value covering instant t.
func (s *Series) At(t time.Time) (float64, error) {
	i, err := s.IndexOf(t)
	if err != nil {
		return 0, err
	}
	return s.Values[i], nil
}

// Slice returns a view of the samples in [from, to). Both instants are
// clamped to the series bounds.
func (s *Series) Slice(from, to time.Time) *Series {
	startIdx := 0
	if d := from.Sub(s.Start); d > 0 {
		startIdx = int(d / s.Step)
		if startIdx > len(s.Values) {
			startIdx = len(s.Values)
		}
	}
	endIdx := len(s.Values)
	if d := to.Sub(s.Start); d >= 0 {
		e := int(d / s.Step)
		if e < endIdx {
			endIdx = e
		}
	} else {
		endIdx = startIdx
	}
	if endIdx < startIdx {
		endIdx = startIdx
	}
	return &Series{
		Start:  s.TimeAt(startIdx),
		Step:   s.Step,
		Values: s.Values[startIdx:endIdx],
	}
}

// Sub returns a new series a-b for two series with identical geometry.
// The paper's price differentials (Fig 9–13) are Sub applied to two hubs'
// hourly prices.
func Sub(a, b *Series) (*Series, error) {
	if a.Step != b.Step || !a.Start.Equal(b.Start) || len(a.Values) != len(b.Values) {
		return nil, errors.New("timeseries: Sub requires identical geometry")
	}
	out := New(a.Start, a.Step, len(a.Values))
	for i := range a.Values {
		out.Values[i] = a.Values[i] - b.Values[i]
	}
	return out, nil
}

// Downsample aggregates consecutive groups of factor samples into one via
// the mean, e.g. 5-minute traffic into hourly load (factor 12). Any
// incomplete trailing group is discarded.
func (s *Series) Downsample(factor int) (*Series, error) {
	if factor <= 0 {
		return nil, errors.New("timeseries: downsample factor must be positive")
	}
	n := len(s.Values) / factor
	out := New(s.Start, s.Step*time.Duration(factor), n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < factor; j++ {
			sum += s.Values[i*factor+j]
		}
		out.Values[i] = sum / float64(factor)
	}
	return out, nil
}

// DailyMeans returns one mean per UTC day (used for Fig 3's daily average
// prices). Incomplete trailing days are discarded.
func (s *Series) DailyMeans() (*Series, error) {
	if s.Step <= 0 || Daily%s.Step != 0 {
		return nil, fmt.Errorf("timeseries: step %v does not divide a day", s.Step)
	}
	return s.Downsample(int(Daily / s.Step))
}

// GroupByHourOfDay buckets every sample by its local hour of day, where
// utcOffsetHours is the local standard-time offset (e.g. -5 for Eastern).
// The result maps hour (0–23) to the samples observed at that local hour,
// the grouping behind Fig 12.
func (s *Series) GroupByHourOfDay(utcOffsetHours int) [24][]float64 {
	var out [24][]float64
	for i, v := range s.Values {
		h := (s.TimeAt(i).Hour() + utcOffsetHours) % 24
		if h < 0 {
			h += 24
		}
		out[h] = append(out[h], v)
	}
	return out
}

// MonthKey identifies a calendar month.
type MonthKey struct {
	Year  int
	Month time.Month
}

// String formats the key as "2006-01".
func (k MonthKey) String() string { return fmt.Sprintf("%04d-%02d", k.Year, k.Month) }

// Before reports whether k precedes other.
func (k MonthKey) Before(other MonthKey) bool {
	if k.Year != other.Year {
		return k.Year < other.Year
	}
	return k.Month < other.Month
}

// GroupByMonth buckets samples by calendar month (UTC), the grouping behind
// Fig 11's month-by-month differential distributions. The keys slice is
// returned in chronological order.
func (s *Series) GroupByMonth() ([]MonthKey, map[MonthKey][]float64) {
	groups := make(map[MonthKey][]float64)
	var keys []MonthKey
	for i, v := range s.Values {
		t := s.TimeAt(i)
		k := MonthKey{t.Year(), t.Month()}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], v)
	}
	return keys, groups
}

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Start: s.Start, Step: s.Step, Values: v}
}
