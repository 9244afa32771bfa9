package traffic

import (
	"math"
	"sync"
	"testing"
	"time"

	"powerroute/internal/stats"
)

var testTrace = sync.OnceValue(func() *Trace {
	return MustGenerate(Config{Seed: 11})
})

func TestGeometry(t *testing.T) {
	tr := testTrace()
	if tr.Samples != 24*SamplesPerDay {
		t.Fatalf("Samples = %d, want %d", tr.Samples, 24*SamplesPerDay)
	}
	if len(tr.States) != 51 {
		t.Fatalf("States = %d, want 51", len(tr.States))
	}
	for _, sd := range tr.States {
		if len(sd.Rate) != tr.Samples {
			t.Fatalf("state %s: %d samples", sd.State.Code, len(sd.Rate))
		}
		for k, v := range sd.Rate {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("state %s sample %d: rate %v", sd.State.Code, k, v)
			}
		}
	}
	if tr.Global().Len() != tr.Samples || tr.US().Len() != tr.Samples || tr.NineRegion().Len() != tr.Samples {
		t.Error("aggregate series lengths wrong")
	}
	if !tr.TimeAt(0).Equal(DefaultStart) {
		t.Errorf("TimeAt(0) = %v", tr.TimeAt(0))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Days: -1}); err == nil {
		t.Error("negative days should fail")
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(Config{Seed: 5, Days: 3})
	b := MustGenerate(Config{Seed: 5, Days: 3})
	c := MustGenerate(Config{Seed: 6, Days: 3})
	for i := range a.States {
		for k := range a.States[i].Rate {
			if a.States[i].Rate[k] != b.States[i].Rate[k] {
				t.Fatal("same seed diverged")
			}
		}
	}
	diff := false
	for k := range a.US().Values {
		if a.US().Values[k] != c.US().Values[k] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds identical")
	}
}

// TestFig14Peaks: the US series peaks at the configured rate and the global
// series peaks above 2M hits/s.
func TestFig14Peaks(t *testing.T) {
	tr := testTrace()
	usPeak := stats.Summarize(tr.US().Values).Max
	if math.Abs(usPeak-DefaultUSPeak) > 1 {
		t.Errorf("US peak = %.0f, want %.0f (normalized exactly)", usPeak, DefaultUSPeak)
	}
	globalPeak := stats.Summarize(tr.Global().Values).Max
	if globalPeak < 1.8e6 || globalPeak > 2.4e6 {
		t.Errorf("global peak = %.2g, want ≈ 2M hits/s", globalPeak)
	}
	// Series ordering: global ≥ US ≥ nine-region at every sample.
	for k := range tr.US().Values {
		g, u, n := tr.Global().Values[k], tr.US().Values[k], tr.NineRegion().Values[k]
		if g < u || u < n {
			t.Fatalf("sample %d: ordering violated g=%.0f u=%.0f n=%.0f", k, g, u, n)
		}
	}
	// Nine-region subset carries the configured share of US traffic.
	ratio := stats.Mean(tr.NineRegion().Values) / stats.Mean(tr.US().Values)
	if math.Abs(ratio-DefaultPublicShare) > 0.01 {
		t.Errorf("nine-region share = %.3f, want %.2f", ratio, DefaultPublicShare)
	}
}

func TestDiurnalSwing(t *testing.T) {
	tr := testTrace()
	us := tr.US()
	// Compute mean by UTC hour; the US curve should trough in the US night
	// (07:00–10:00 UTC ≈ 2–5am ET) and peak in the US evening
	// (00:00–03:00 UTC ≈ 7–10pm ET).
	byHour := us.GroupByHourOfDay(0)
	trough := stats.Mean(byHour[9])
	peak := stats.Mean(byHour[1])
	if peak < 1.5*trough {
		t.Errorf("diurnal swing too small: peak %.0f vs trough %.0f", peak, trough)
	}
}

func TestGeographicMixFollowsPopulation(t *testing.T) {
	tr := testTrace()
	meanRate := func(code string) float64 {
		i, err := tr.StateIndex(code)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Mean(tr.States[i].Rate)
	}
	ca, wy := meanRate("CA"), meanRate("WY")
	if ca < 20*wy {
		t.Errorf("California (%.0f) should dwarf Wyoming (%.0f)", ca, wy)
	}
	tx, vt := meanRate("TX"), meanRate("VT")
	if tx < 10*vt {
		t.Errorf("Texas (%.0f) should dwarf Vermont (%.0f)", tx, vt)
	}
}

func TestHolidayDip(t *testing.T) {
	tr := testTrace()
	us := tr.US()
	day := func(m time.Month, d int) float64 {
		from := time.Date(2008, m, d, 0, 0, 0, 0, time.UTC)
		if m == time.January {
			from = time.Date(2009, m, d, 0, 0, 0, 0, time.UTC)
		}
		return stats.Mean(us.Slice(from, from.AddDate(0, 0, 1)).Values)
	}
	christmas := day(time.December, 25)
	newYear := day(time.January, 1)
	ordinary := day(time.December, 22) // a Monday before the holidays
	if christmas >= 0.9*ordinary {
		t.Errorf("Christmas traffic %.0f not clearly below ordinary %.0f", christmas, ordinary)
	}
	if newYear >= 0.95*ordinary {
		t.Errorf("New Year traffic %.0f not below ordinary %.0f", newYear, ordinary)
	}
}

func TestStateIndexErrors(t *testing.T) {
	tr := testTrace()
	if _, err := tr.StateIndex("ZZ"); err == nil {
		t.Error("unknown state should fail")
	}
	i, err := tr.StateIndex("MA")
	if err != nil || tr.States[i].State.Name != "Massachusetts" {
		t.Errorf("StateIndex(MA) = %d, %v", i, err)
	}
}

func TestDiurnalLoadShape(t *testing.T) {
	// Trough at 4am, peak near 20:30, continuous everywhere.
	if DiurnalLoad(4) >= DiurnalLoad(12) || DiurnalLoad(12) >= DiurnalLoad(20.5) {
		t.Error("diurnal ordering wrong")
	}
	if math.Abs(DiurnalLoad(0)-DiurnalLoad(24)) > 1e-9 {
		t.Error("diurnal not periodic")
	}
	if math.Abs(DiurnalLoad(-4)-DiurnalLoad(20)) > 1e-9 {
		t.Error("negative hours not wrapped")
	}
	for h := 0.0; h <= 24; h += 0.05 {
		v := DiurnalLoad(h)
		if v < 0.3 || v > 1.01 {
			t.Fatalf("DiurnalLoad(%.2f) = %v outside [0.3, 1]", h, v)
		}
	}
	// Continuity: no jumps larger than a small bound between 5-min steps.
	prev := DiurnalLoad(0)
	for h := 1.0 / 12; h <= 24; h += 1.0 / 12 {
		v := DiurnalLoad(h)
		if math.Abs(v-prev) > 0.03 {
			t.Fatalf("diurnal jump at %.2f: %v -> %v", h, prev, v)
		}
		prev = v
	}
}

func TestWeekAndHolidayFactors(t *testing.T) {
	if WeekLoad(time.Saturday) >= WeekLoad(time.Wednesday) {
		t.Error("Saturday load should be below weekday")
	}
	if HolidayLoad(time.Date(2008, 12, 25, 12, 0, 0, 0, time.UTC)) >= 0.9 {
		t.Error("Christmas factor too high")
	}
	if HolidayLoad(time.Date(2008, 12, 10, 12, 0, 0, 0, time.UTC)) != 1.0 {
		t.Error("ordinary day factor should be 1")
	}
}

func TestLongRunWorkload(t *testing.T) {
	tr := testTrace()
	lr := tr.LongRun()
	if len(lr.States) != 51 {
		t.Fatalf("LongRun states = %d", len(lr.States))
	}
	// The profile preserves the total demand scale.
	var lrTotal, traceTotal float64
	for how := 0; how < 168; how++ {
		at := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(how) * time.Hour)
		lrTotal += lr.Total(at)
	}
	lrTotal /= 168
	traceTotal = stats.Mean(tr.NineRegion().Values)
	if math.Abs(lrTotal-traceTotal) > 0.15*traceTotal {
		t.Errorf("LongRun mean %.0f far from trace mean %.0f", lrTotal, traceTotal)
	}
	// Diurnal structure survives: Wednesday 4am ET well below Wednesday
	// 9pm ET for an Eastern state.
	i, _ := tr.StateIndex("NY")
	low, err := lr.Rate(i, time.Date(2006, 1, 4, 9, 0, 0, 0, time.UTC)) // 4am ET
	if err != nil {
		t.Fatal(err)
	}
	high, _ := lr.Rate(i, time.Date(2006, 1, 5, 2, 0, 0, 0, time.UTC)) // 9pm ET Wed
	if high < 1.4*low {
		t.Errorf("LongRun diurnal washed out: high %.0f vs low %.0f", high, low)
	}
	// Bounds checks.
	if _, err := lr.Rate(-1, time.Now()); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := lr.Rate(99, time.Now()); err == nil {
		t.Error("out-of-range index should fail")
	}
	// Rates fills and reuses buffers.
	buf := lr.Rates(time.Now(), nil)
	if len(buf) != 51 {
		t.Fatalf("Rates buffer len %d", len(buf))
	}
	again := lr.Rates(time.Now(), buf)
	if &again[0] != &buf[0] {
		t.Error("Rates should reuse correctly sized buffer")
	}
}

func TestHourOfWeek(t *testing.T) {
	// 2006-01-01 was a Sunday.
	if HourOfWeek(time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)) != 0 {
		t.Error("Sunday midnight should be hour 0")
	}
	if HourOfWeek(time.Date(2006, 1, 2, 5, 0, 0, 0, time.UTC)) != 29 {
		t.Error("Monday 5am should be hour 29")
	}
	// The Unix-time arithmetic agrees with the calendar on every 17th
	// minute from 1960 to 2040, before and after the epoch, whatever zone
	// the instant is expressed in.
	zones := []*time.Location{time.UTC, time.FixedZone("UTC-7", -7*3600), time.FixedZone("UTC+5:30", 5*3600+1800)}
	end := time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC)
	for at := time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC); at.Before(end); at = at.Add(17 * time.Minute) {
		u := at.UTC()
		want := int(u.Weekday())*24 + u.Hour()
		for _, z := range zones {
			if got := HourOfWeek(at.In(z)); got != want {
				t.Fatalf("HourOfWeek(%v) = %d, want %d", at.In(z), got, want)
			}
		}
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate should panic on bad config")
		}
	}()
	MustGenerate(Config{Days: -3})
}
