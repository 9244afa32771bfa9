package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

func TestGeometry(t *testing.T) {
	s := New(t0, Hourly, 48)
	if s.Len() != 48 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.TimeAt(0).Equal(t0) {
		t.Errorf("TimeAt(0) = %v", s.TimeAt(0))
	}
	if !s.TimeAt(25).Equal(t0.Add(25 * time.Hour)) {
		t.Errorf("TimeAt(25) = %v", s.TimeAt(25))
	}
	if !s.End().Equal(t0.Add(48 * time.Hour)) {
		t.Errorf("End = %v", s.End())
	}
}

func TestIndexOfAndAt(t *testing.T) {
	s := New(t0, Hourly, 24)
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	// Mid-hour instants map to the covering sample.
	i, err := s.IndexOf(t0.Add(90 * time.Minute))
	if err != nil || i != 1 {
		t.Errorf("IndexOf(+90m) = %d, %v; want 1", i, err)
	}
	v, err := s.At(t0.Add(23*time.Hour + 59*time.Minute))
	if err != nil || v != 23 {
		t.Errorf("At(last minute) = %v, %v; want 23", v, err)
	}
	if _, err := s.IndexOf(t0.Add(-time.Second)); err == nil {
		t.Error("IndexOf before start should fail")
	}
	if _, err := s.IndexOf(t0.Add(24 * time.Hour)); err == nil {
		t.Error("IndexOf at end should fail")
	}
}

func TestSlice(t *testing.T) {
	s := New(t0, Hourly, 24)
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	mid := s.Slice(t0.Add(6*time.Hour), t0.Add(12*time.Hour))
	if mid.Len() != 6 || mid.Values[0] != 6 || mid.Values[5] != 11 {
		t.Errorf("Slice(6h,12h) = %v", mid.Values)
	}
	if !mid.Start.Equal(t0.Add(6 * time.Hour)) {
		t.Errorf("Slice start = %v", mid.Start)
	}
	// Clamped bounds.
	all := s.Slice(t0.Add(-100*time.Hour), t0.Add(1000*time.Hour))
	if all.Len() != 24 {
		t.Errorf("clamped slice len = %d", all.Len())
	}
	empty := s.Slice(t0.Add(10*time.Hour), t0.Add(5*time.Hour))
	if empty.Len() != 0 {
		t.Errorf("inverted slice len = %d", empty.Len())
	}
	before := s.Slice(t0.Add(-5*time.Hour), t0.Add(-2*time.Hour))
	if before.Len() != 0 {
		t.Errorf("pre-start slice len = %d", before.Len())
	}
}

func TestSub(t *testing.T) {
	a := New(t0, Hourly, 3)
	b := New(t0, Hourly, 3)
	copy(a.Values, []float64{10, 20, 30})
	copy(b.Values, []float64{1, 2, 3})
	d, err := Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{9, 18, 27} {
		if d.Values[i] != want {
			t.Errorf("Sub[%d] = %v, want %v", i, d.Values[i], want)
		}
	}
	// Geometry mismatches.
	if _, err := Sub(a, New(t0, FiveMinute, 3)); err == nil {
		t.Error("step mismatch should fail")
	}
	if _, err := Sub(a, New(t0.Add(time.Hour), Hourly, 3)); err == nil {
		t.Error("start mismatch should fail")
	}
	if _, err := Sub(a, New(t0, Hourly, 4)); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestDownsample(t *testing.T) {
	s := New(t0, FiveMinute, 25) // 2 full hours + one extra sample
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	h, err := s.Downsample(12)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("Downsample len = %d, want 2 (trailing partial discarded)", h.Len())
	}
	if h.Step != time.Hour {
		t.Errorf("Downsample step = %v", h.Step)
	}
	if math.Abs(h.Values[0]-5.5) > 1e-12 || math.Abs(h.Values[1]-17.5) > 1e-12 {
		t.Errorf("Downsample values = %v", h.Values)
	}
	if _, err := s.Downsample(0); err == nil {
		t.Error("factor 0 should fail")
	}
}

func TestDailyMeans(t *testing.T) {
	s := New(t0, Hourly, 49)
	for i := range s.Values {
		s.Values[i] = 10
	}
	s.Values[0] = 34 // perturb first day
	d, err := s.DailyMeans()
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("DailyMeans len = %d, want 2", d.Len())
	}
	if math.Abs(d.Values[0]-11) > 1e-12 {
		t.Errorf("day 0 mean = %v, want 11", d.Values[0])
	}
	if math.Abs(d.Values[1]-10) > 1e-12 {
		t.Errorf("day 1 mean = %v, want 10", d.Values[1])
	}
	odd := New(t0, 7*time.Hour, 10)
	if _, err := odd.DailyMeans(); err == nil {
		t.Error("step not dividing a day should fail")
	}
}

func TestGroupByHourOfDay(t *testing.T) {
	s := New(t0, Hourly, 48)
	for i := range s.Values {
		s.Values[i] = float64(i % 24) // value equals its UTC hour
	}
	utc := s.GroupByHourOfDay(0)
	for h := 0; h < 24; h++ {
		if len(utc[h]) != 2 {
			t.Fatalf("hour %d has %d samples, want 2", h, len(utc[h]))
		}
		if utc[h][0] != float64(h) {
			t.Errorf("hour %d sample = %v", h, utc[h][0])
		}
	}
	// Eastern offset shifts buckets: local hour 19 holds UTC-hour-0 values.
	est := s.GroupByHourOfDay(-5)
	if est[19][0] != 0 {
		t.Errorf("EST hour 19 = %v, want 0 (UTC midnight)", est[19][0])
	}
	total := 0
	for h := range est {
		total += len(est[h])
	}
	if total != 48 {
		t.Errorf("grouping lost samples: %d", total)
	}
}

func TestGroupByMonth(t *testing.T) {
	// 90 days spanning Jan, Feb, Mar 2006.
	s := New(t0, Daily, 90)
	keys, groups := s.GroupByMonth()
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	want := []MonthKey{{2006, time.January}, {2006, time.February}, {2006, time.March}}
	for i, k := range want {
		if keys[i] != k {
			t.Errorf("keys[%d] = %v, want %v", i, keys[i], k)
		}
	}
	if len(groups[want[0]]) != 31 || len(groups[want[1]]) != 28 {
		t.Errorf("group sizes: jan=%d feb=%d", len(groups[want[0]]), len(groups[want[1]]))
	}
	if want[0].String() != "2006-01" {
		t.Errorf("MonthKey.String = %q", want[0].String())
	}
	if !want[0].Before(want[1]) || want[1].Before(want[0]) {
		t.Error("MonthKey.Before wrong")
	}
	if want[0].Before(want[0]) {
		t.Error("MonthKey.Before should be strict")
	}
	// Cross-year ordering.
	if !(MonthKey{2006, time.December}).Before(MonthKey{2007, time.January}) {
		t.Error("cross-year Before wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(t0, Hourly, 4)
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestRoundTripIndexProperty(t *testing.T) {
	s := New(t0, FiveMinute, 1000)
	f := func(n uint16) bool {
		i := int(n) % s.Len()
		j, err := s.IndexOf(s.TimeAt(i))
		return err == nil && j == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
