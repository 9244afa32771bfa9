package market

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"powerroute/internal/stats"
	"powerroute/internal/timeseries"
)

// TestFig10DifferentialDistributions: the five published pairs.
func TestFig10DifferentialDistributions(t *testing.T) {
	d := testData()
	cases := []struct {
		a, b    string
		maxMean float64 // |μ| bound, $/MWh
		minStd  float64
		label   string
	}{
		// (a) PaloAlto−Virginia: zero mean, high variance (paper σ=55.7).
		{"NP15", "DOM", 10, 35, "PaloAlto-Virginia"},
		// (b) Austin−Virginia: zero-ish mean, high variance (paper σ=87.7).
		{"ERS", "DOM", 15, 35, "Austin-Virginia"},
		// (e) Chicago−Peoria: market-boundary dispersion (paper σ=32.0).
		{"CHI", "IL", 10, 20, "Chicago-Peoria"},
	}
	for _, c := range cases {
		diff, err := d.Differential(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		s := stats.Summarize(diff.Values)
		if math.Abs(s.Mean) > c.maxMean {
			t.Errorf("%s: |μ| = %.1f, want ≤ %.1f", c.label, math.Abs(s.Mean), c.maxMean)
		}
		if s.StdDev < c.minStd {
			t.Errorf("%s: σ = %.1f, want ≥ %.1f", c.label, s.StdDev, c.minStd)
		}
		if s.Kurtosis < 5 {
			t.Errorf("%s: κ = %.1f, want ≥ 5 (very heavy differential tails)", c.label, s.Kurtosis)
		}
	}
}

// TestFig10BostonNYCSkew: "Boston tends to be cheaper than NYC, but NYC is
// less expensive 36% of the time (the savings are greater than $10/MWh 18%
// of the time)".
func TestFig10BostonNYCSkew(t *testing.T) {
	d := testData()
	diff, err := d.Differential("BOS", "NYC")
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Mean(diff.Values); m >= -3 {
		t.Errorf("BOS−NYC mean %.1f, want clearly negative (Boston cheaper)", m)
	}
	nycCheaper := 1 - stats.FractionBelow(diff.Values, 0)
	if nycCheaper < 0.15 || nycCheaper > 0.50 {
		t.Errorf("NYC cheaper %.0f%% of hours, want 15–50%% (paper: 36%%)", 100*nycCheaper)
	}
	// The exploitable share: NYC at least $10 cheaper a meaningful
	// fraction of the time.
	bigSave := 1 - stats.FractionBelow(diff.Values, 10)
	if bigSave < 0.05 {
		t.Errorf("NYC ≥$10 cheaper only %.1f%% of hours, want ≥ 5%% (paper: 18%%)", 100*bigSave)
	}
}

// TestFig10ChicagoVirginiaDominance: "Virginia is less expensive 8% of the
// time, but the savings almost never exceed $10/MWh" — a pair where one
// location strictly dominates and dynamic adaptation is unnecessary.
func TestFig10ChicagoVirginiaDominance(t *testing.T) {
	d := testData()
	diff, err := d.Differential("CHI", "DOM") // Chicago minus Virginia
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Mean(diff.Values); m >= -8 {
		t.Errorf("CHI−DOM mean %.1f, want strongly negative (Chicago much cheaper)", m)
	}
	vaCheaper := 1 - stats.FractionBelow(diff.Values, 0)
	if vaCheaper > 0.35 {
		t.Errorf("Virginia cheaper %.0f%% of hours, want a small minority (paper: 8%%)", 100*vaCheaper)
	}
}

// TestFig11MonthlyEvolution: monthly differential distributions move around
// and sustained asymmetries exist but eventually reverse.
func TestFig11MonthlyEvolution(t *testing.T) {
	d := testData()
	diff, err := d.Differential("NP15", "DOM")
	if err != nil {
		t.Fatal(err)
	}
	keys, groups := diff.GroupByMonth()
	if len(keys) != 39 {
		t.Fatalf("months = %d, want 39", len(keys))
	}
	var medians []float64
	for _, k := range keys {
		med, err := stats.Quantile(groups[k], 0.5)
		if err != nil {
			t.Fatal(err)
		}
		medians = append(medians, med)
	}
	// Both signs occur across months (asymmetry "sometimes favours one,
	// sometimes the other").
	pos, neg := 0, 0
	for _, m := range medians {
		if m > 0 {
			pos++
		}
		if m < 0 {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Errorf("monthly medians never change sign (pos=%d neg=%d)", pos, neg)
	}
	// The monthly spread itself varies in time ("the spread of prices in
	// one month may double the next month").
	var spreads []float64
	for _, k := range keys {
		iqr, _ := stats.ComputeIQR(groups[k])
		spreads = append(spreads, iqr.Q75-iqr.Q25)
	}
	minS, maxS := spreads[0], spreads[0]
	for _, s := range spreads {
		minS = math.Min(minS, s)
		maxS = math.Max(maxS, s)
	}
	if maxS < 1.5*minS {
		t.Errorf("monthly IQR nearly constant: min %.1f max %.1f", minS, maxS)
	}
}

// TestFig12HourOfDayPattern: the PaloAlto−Virginia differential depends
// strongly on hour of day because the two coasts' demand peaks do not
// overlap: "Before 5am (eastern), Virginia has a significant edge; by 6am
// the situation has reversed".
func TestFig12HourOfDayPattern(t *testing.T) {
	d := testData()
	diff, err := d.Differential("NP15", "DOM")
	if err != nil {
		t.Fatal(err)
	}
	byHour := diff.GroupByHourOfDay(-5) // group by Eastern local hour
	med := func(h int) float64 {
		m, err := stats.Quantile(byHour[h], 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Small hours eastern: California's evening peak is still running while
	// Virginia sleeps → differential (CA−VA) elevated; by Virginia's
	// morning/afternoon the sign flips.
	early := med(2)   // 2am eastern = 11pm pacific
	midday := med(15) // 3pm eastern = noon pacific
	if early <= midday {
		t.Errorf("hour-of-day pattern missing: med@2amET %.1f ≤ med@3pmET %.1f", early, midday)
	}
	// The medians must actually change sign across the day (Fig 12 top).
	minM, maxM := math.Inf(1), math.Inf(-1)
	for h := 0; h < 24; h++ {
		m := med(h)
		minM = math.Min(minM, m)
		maxM = math.Max(maxM, m)
	}
	if minM >= 0 || maxM <= 0 {
		t.Errorf("PaloAlto−Virginia hourly medians span [%.1f, %.1f]; want sign change", minM, maxM)
	}
}

func TestSustainedDifferentialsCrafted(t *testing.T) {
	// +: favours B beyond threshold; −: favours A; ·: dead band.
	diff := []float64{8, 9, 7, 2, -6, -7, 3, 8, -9, 9}
	runs := SustainedDifferentials(diff, 5)
	want := []int{3, 2, 1, 1, 1}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
	// Sign reversal without visiting the dead band still splits runs.
	runs = SustainedDifferentials([]float64{10, -10, 10}, 5)
	if len(runs) != 3 || runs[0] != 1 {
		t.Errorf("reversal runs = %v, want [1 1 1]", runs)
	}
	if got := SustainedDifferentials(nil, 5); got != nil {
		t.Errorf("empty input runs = %v", got)
	}
	if got := SustainedDifferentials([]float64{1, 2, 3}, 5); got != nil {
		t.Errorf("all-dead-band runs = %v", got)
	}
}

func TestSustainedDifferentialsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		runs := SustainedDifferentials(raw, 5)
		total := 0
		for _, r := range runs {
			if r <= 0 {
				return false
			}
			total += r
		}
		// Run hours can never exceed the series length.
		return total <= len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFig13DurationDistribution: short differentials dominate; day-plus
// differentials are rare for a balanced pair.
func TestFig13DurationDistribution(t *testing.T) {
	d := testData()
	diff, err := d.Differential("NP15", "DOM")
	if err != nil {
		t.Fatal(err)
	}
	runs := SustainedDifferentials(diff.Values, 5)
	if len(runs) == 0 {
		t.Fatal("no sustained differentials found")
	}
	fr := DurationFractions(runs, diff.Len(), 36)
	short := fr[1] + fr[2] + fr[3]
	var dayPlus float64
	for h := 24; h <= 36; h++ {
		dayPlus += fr[h]
	}
	if short <= dayPlus {
		t.Errorf("short-differential time %.3f not above day-plus time %.3f", short, dayPlus)
	}
	// Mid-length differentials (<9h) are common (paper: "Medium length
	// differentials (<9 hrs) are common").
	var under9 float64
	for h := 1; h < 9; h++ {
		under9 += fr[h]
	}
	if under9 < 0.2 {
		t.Errorf("time in <9h differentials = %.2f, want ≥ 0.2", under9)
	}
}

func TestDurationFractionsEdges(t *testing.T) {
	if DurationFractions([]int{1}, 0, 10) != nil {
		t.Error("zero total hours should return nil")
	}
	if DurationFractions([]int{1}, 10, 0) != nil {
		t.Error("zero max hours should return nil")
	}
	fr := DurationFractions([]int{2, 50}, 100, 10)
	// Run of 50 accumulates its full 50 hours in the final bucket.
	if math.Abs(fr[10]-0.5) > 1e-12 {
		t.Errorf("overflow bucket = %v, want 0.5", fr[10])
	}
	if math.Abs(fr[2]-0.02) > 1e-12 {
		t.Errorf("fr[2] = %v, want 0.02", fr[2])
	}
}

func TestDailyPeakMeans(t *testing.T) {
	// Two days of hourly data valued by their UTC hour.
	s := timeseries.New(time.Date(2008, 8, 11, 0, 0, 0, 0, time.UTC), timeseries.Hourly, 48)
	for i := range s.Values {
		s.Values[i] = float64(i % 24)
	}
	// UTC zone: peak hours 7..22 → mean of 7..22 = 14.5.
	pm, err := DailyPeakMeans(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Len() != 2 {
		t.Fatalf("days = %d", pm.Len())
	}
	if math.Abs(pm.Values[0]-14.5) > 1e-12 {
		t.Errorf("peak mean = %v, want 14.5", pm.Values[0])
	}
	// Eastern zone shifts which UTC hours count as local peak.
	pmE, err := DailyPeakMeans(s, -5)
	if err != nil {
		t.Fatal(err)
	}
	if pmE.Values[0] == pm.Values[0] {
		t.Error("zone offset had no effect on peak selection")
	}
	if _, err := DailyPeakMeans(timeseries.New(time.Now(), timeseries.Daily, 5), 0); err == nil {
		t.Error("non-hourly series should fail")
	}
}

func TestQuarterSlice(t *testing.T) {
	d := testData()
	rt, _ := d.RT("NYC")
	q1, err := QuarterSlice(rt, 2009, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !q1.Start.Equal(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("Q1 start = %v", q1.Start)
	}
	if q1.Len() != (31+28+31)*24 {
		t.Errorf("Q1 2009 hours = %d, want %d", q1.Len(), (31+28+31)*24)
	}
	if _, err := QuarterSlice(rt, 2009, 5); err == nil {
		t.Error("invalid quarter should fail")
	}
	if _, err := QuarterSlice(rt, 2020, 1); err == nil {
		t.Error("out-of-range year should fail")
	}
}

func TestDifferentialErrors(t *testing.T) {
	d := testData()
	if _, err := d.Differential("NOPE", "NYC"); err == nil {
		t.Error("unknown first hub should fail")
	}
	if _, err := d.Differential("NYC", "NOPE"); err == nil {
		t.Error("unknown second hub should fail")
	}
}

// TestFig9SpikesInDifferentials: differential series show price spikes; the
// paper's Fig 9 notes some extend far off the ±$100 scale.
func TestFig9SpikesInDifferentials(t *testing.T) {
	d := testData()
	diff, err := d.Differential("ERS", "DOM")
	if err != nil {
		t.Fatal(err)
	}
	s := stats.Summarize(diff.Values)
	if s.Max < 150 && s.Min > -150 {
		t.Errorf("differential range [%.0f, %.0f] lacks large spikes", s.Min, s.Max)
	}
}
