package market

import (
	"math"
	"sync"
	"testing"
	"time"

	"powerroute/internal/stats"
	"powerroute/internal/timeseries"
)

// testData lazily generates one full 39-month dataset shared by all tests
// in the package (generation takes ~100 ms).
var testData = sync.OnceValue(func() *Dataset {
	return MustGenerate(Config{Seed: 7})
})

func TestGenerateGeometry(t *testing.T) {
	d := testData()
	if !d.Start.Equal(DefaultStart) {
		t.Errorf("Start = %v", d.Start)
	}
	// Jan 2006 through March 2009 inclusive: 1186 days.
	if d.Hours != 1186*24 {
		t.Errorf("Hours = %d, want %d", d.Hours, 1186*24)
	}
	for _, h := range d.Hubs() {
		rt, err := d.RT(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		da, err := d.DA(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Len() != d.Hours || da.Len() != d.Hours {
			t.Errorf("hub %s: series lengths %d/%d", h.ID, rt.Len(), da.Len())
		}
		if rt.Step != timeseries.Hourly {
			t.Errorf("hub %s: RT step %v", h.ID, rt.Step)
		}
	}
	nw := d.NorthwestDaily()
	if nw.Len() != 1186 || nw.Step != timeseries.Daily {
		t.Errorf("Northwest daily: len=%d step=%v", nw.Len(), nw.Step)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Months: -1}); err == nil {
		t.Error("negative months should fail")
	}
	d := testData()
	if _, err := d.RT("NOPE"); err == nil {
		t.Error("unknown hub RT should fail")
	}
	if _, err := d.DA("NOPE"); err == nil {
		t.Error("unknown hub DA should fail")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := MustGenerate(Config{Seed: 123, Months: 2})
	b := MustGenerate(Config{Seed: 123, Months: 2})
	c := MustGenerate(Config{Seed: 124, Months: 2})
	ra, _ := a.RT("NYC")
	rb, _ := b.RT("NYC")
	rc, _ := c.RT("NYC")
	for i := range ra.Values {
		if ra.Values[i] != rb.Values[i] {
			t.Fatalf("same seed diverged at hour %d", i)
		}
	}
	same := true
	for i := range ra.Values {
		if ra.Values[i] != rc.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical series")
	}
}

func TestPricesBounded(t *testing.T) {
	d := testData()
	for _, h := range d.Hubs() {
		rt, _ := d.RT(h.ID)
		neg := 0
		for _, p := range rt.Values {
			if p < priceFloor || p > priceCeil {
				t.Fatalf("hub %s: price %v outside clamp", h.ID, p)
			}
			if p < 0 {
				neg++
			}
		}
		// Negative prices occur "for brief periods" (§2.2): present in the
		// aggregate but rare everywhere.
		if frac := float64(neg) / float64(rt.Len()); frac > 0.03 {
			t.Errorf("hub %s: %.1f%% negative prices, want < 3%%", h.ID, 100*frac)
		}
	}
}

func TestNegativePricesExist(t *testing.T) {
	d := testData()
	total := 0
	for _, h := range d.Hubs() {
		rt, _ := d.RT(h.ID)
		for _, p := range rt.Values {
			if p < 0 {
				total++
			}
		}
	}
	if total == 0 {
		t.Error("no negative prices anywhere; §2.2 says they occur for brief periods")
	}
}

// TestFig6Calibration checks the six published hubs against Fig 6's
// 1%-trimmed statistics.
func TestFig6Calibration(t *testing.T) {
	d := testData()
	cases := []struct {
		hub      string
		mean, sd float64
	}{
		{"CHI", 40.6, 26.9},
		{"CIN", 44.0, 28.3},
		{"NP15", 54.0, 34.2},
		{"DOM", 57.8, 39.2},
		{"BOS", 66.5, 25.8},
		{"NYC", 77.9, 40.26},
	}
	for _, c := range cases {
		rt, _ := d.RT(c.hub)
		s := stats.TrimmedSummary(rt.Values, 0.01)
		if math.Abs(s.Mean-c.mean) > 0.08*c.mean {
			t.Errorf("%s: trimmed mean %.1f, want %.1f ±8%%", c.hub, s.Mean, c.mean)
		}
		if math.Abs(s.StdDev-c.sd) > 0.20*c.sd {
			t.Errorf("%s: trimmed σ %.1f, want %.1f ±20%%", c.hub, s.StdDev, c.sd)
		}
		// Leptokurtic even after trimming (paper: 4.6–11.9; the generator
		// lands lower but must stay clearly above a flat-topped mixture).
		if s.Kurtosis < 3.0 {
			t.Errorf("%s: trimmed kurtosis %.2f, want ≥ 3", c.hub, s.Kurtosis)
		}
	}
	// Ordering of means matches Fig 6: Chicago cheapest … NYC priciest.
	means := make([]float64, len(cases))
	for i, c := range cases {
		rt, _ := d.RT(c.hub)
		means[i] = stats.Mean(rt.Values)
	}
	for i := 1; i < len(means); i++ {
		if means[i] <= means[i-1] {
			t.Errorf("mean ordering violated between %s and %s", cases[i-1].hub, cases[i].hub)
		}
	}
}

func TestRawKurtosisHeavy(t *testing.T) {
	d := testData()
	for _, id := range []string{"CHI", "NP15", "NYC", "DOM"} {
		rt, _ := d.RT(id)
		if k := stats.Kurtosis(rt.Values); k < 5 {
			t.Errorf("%s: raw kurtosis %.1f, want ≥ 5 (heavy spike tails)", id, k)
		}
	}
}

// TestFig7HourlyChanges checks the hour-to-hour change distribution: zero
// mean, Gaussian-like body with very long tails, and a substantial fraction
// of changes beyond ±$20 ("the price per MWh changed hourly by $20 or more
// roughly 20% of the time").
func TestFig7HourlyChanges(t *testing.T) {
	d := testData()
	for _, id := range []string{"NP15", "CHI"} {
		rt, _ := d.RT(id)
		delta := stats.Diff(rt.Values)
		if m := stats.Mean(delta); math.Abs(m) > 0.5 {
			t.Errorf("%s: Δ mean %v, want ≈ 0", id, m)
		}
		within := stats.FractionWithin(delta, 20)
		if within < 0.60 || within > 0.92 {
			t.Errorf("%s: %.0f%% of changes within $20, want 60–92%% (paper ≈ 80%%)", id, 100*within)
		}
		if k := stats.Kurtosis(delta); k < 5 {
			t.Errorf("%s: Δ kurtosis %.1f, want ≥ 5 (very long tails)", id, k)
		}
	}
}

// TestFig8CorrelationStructure verifies the headline finding of §3.2:
// same-RTO pairs are well correlated, different-RTO pairs never are, and
// correlation decays with distance.
func TestFig8CorrelationStructure(t *testing.T) {
	d := testData()
	pairs, err := d.AllPairCorrelations()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 29*28/2 {
		t.Fatalf("pairs = %d, want 406", len(pairs))
	}
	var nearSum, nearN, farSum, farN float64
	for _, p := range pairs {
		if p.Correlation < 0 {
			t.Errorf("%s-%s: negative correlation %.2f (paper: no pairs were)", p.HubA, p.HubB, p.Correlation)
		}
		if !p.SameRTO && p.Correlation >= 0.6 {
			t.Errorf("%s-%s: cross-RTO correlation %.2f ≥ 0.6", p.HubA, p.HubB, p.Correlation)
		}
		if p.SameRTO && p.Correlation <= 0.5 {
			t.Errorf("%s-%s: same-RTO correlation %.2f ≤ 0.5", p.HubA, p.HubB, p.Correlation)
		}
		if p.DistanceKm < 600 {
			nearSum += p.Correlation
			nearN++
		}
		if p.DistanceKm > 2500 {
			farSum += p.Correlation
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("distance buckets empty")
	}
	if nearSum/nearN <= farSum/farN {
		t.Errorf("correlation does not decay with distance: near %.2f vs far %.2f",
			nearSum/nearN, farSum/farN)
	}
}

func TestCAISOPairHighlyCorrelated(t *testing.T) {
	// "LA and Palo Alto have a coefficient of 0.94" (§3.2).
	d := testData()
	a, _ := d.RT("NP15")
	b, _ := d.RT("SP15")
	r, _ := stats.Correlation(a.Values, b.Values)
	if r < 0.85 {
		t.Errorf("NP15-SP15 correlation %.3f, want ≥ 0.85 (paper: 0.94)", r)
	}
}

func TestMutualInformationSeparatesRTOs(t *testing.T) {
	// Footnote 8: mutual information divides same-RTO from different-RTO
	// pairs more cleanly than correlation.
	d := testData()
	pairs, _ := d.AllPairCorrelations()
	var sameMin, diffMax float64 = math.Inf(1), 0
	for _, p := range pairs {
		if p.SameRTO {
			if p.MutualInfo < sameMin {
				sameMin = p.MutualInfo
			}
		} else if p.MutualInfo > diffMax {
			diffMax = p.MutualInfo
		}
	}
	// A clean separation is not guaranteed in general, but same-RTO MI
	// should at least reach well into the different-RTO range's top.
	if sameMin <= 0 || diffMax <= 0 {
		t.Fatalf("degenerate MI: sameMin=%v diffMax=%v", sameMin, diffMax)
	}
	if sameMin < 0.25*diffMax {
		t.Errorf("same-RTO MI floor %.3f far below diff-RTO ceiling %.3f", sameMin, diffMax)
	}
}

func TestDiurnalPattern(t *testing.T) {
	d := testData()
	for _, h := range d.Hubs() {
		rt, _ := d.RT(h.ID)
		byHour := rt.GroupByHourOfDay(int(h.Zone))
		night := stats.Mean(byHour[3])
		afternoon := stats.Mean(byHour[17])
		if afternoon <= night {
			t.Errorf("hub %s: 5pm mean %.1f not above 3am mean %.1f", h.ID, afternoon, night)
		}
	}
}

func TestWeekendEffect(t *testing.T) {
	d := testData()
	rt, _ := d.RT("CHI")
	var byDay [7][]float64
	for i, v := range rt.Values {
		wd := rt.TimeAt(i).Weekday()
		byDay[wd] = append(byDay[wd], v)
	}
	weekend := stats.Mean(append(append([]float64{}, byDay[time.Saturday]...), byDay[time.Sunday]...))
	midweek := stats.Mean(byDay[time.Wednesday])
	if weekend >= midweek {
		t.Errorf("weekend mean %.1f not below midweek %.1f", weekend, midweek)
	}
}

// TestFig3GasRunUp: 2008 prices are visibly elevated against 2007 for
// gas-sensitive hubs, and the hydro Northwest is not affected.
func TestFig3GasRunUp(t *testing.T) {
	d := testData()
	year := func(s *timeseries.Series, y int) []float64 {
		return s.Slice(time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC)).Values
	}
	hou, _ := d.RT("ERH") // Houston: gasGamma 1.1
	ratioTX := stats.Mean(year(hou, 2008)) / stats.Mean(year(hou, 2007))
	if ratioTX < 1.15 {
		t.Errorf("Houston 2008/2007 price ratio %.2f, want ≥ 1.15 (gas run-up)", ratioTX)
	}
	nw := d.NorthwestDaily()
	ratioNW := stats.Mean(year(nw, 2008)) / stats.Mean(year(nw, 2007))
	if ratioNW > 1.10 {
		t.Errorf("Northwest 2008/2007 ratio %.2f, want ≈ 1 (hydro: unaffected)", ratioNW)
	}
	if ratioNW >= ratioTX {
		t.Error("Northwest should be less affected by 2008 gas prices than Houston")
	}
}

// TestNorthwestAprilDip: Fig 3's "dips near April" in the hydro Northwest.
func TestNorthwestAprilDip(t *testing.T) {
	d := testData()
	nw := d.NorthwestDaily()
	keys, groups := nw.GroupByMonth()
	var april, annual []float64
	for _, k := range keys {
		vs := groups[k]
		annual = append(annual, vs...)
		if k.Month == time.April {
			april = append(april, vs...)
		}
	}
	if stats.Mean(april) >= 0.9*stats.Mean(annual) {
		t.Errorf("April mean %.1f not clearly below annual mean %.1f",
			stats.Mean(april), stats.Mean(annual))
	}
}

// TestFig5VolatilityOrdering: the real-time market is more volatile than
// day-ahead at short averaging windows, and both σ sequences fall as the
// window grows, converging at 24 h.
func TestFig5VolatilityOrdering(t *testing.T) {
	d := testData()
	rt, _ := d.RT("NYC")
	da, _ := d.DA("NYC")
	rtQ, err := QuarterSlice(rt, 2009, 1)
	if err != nil {
		t.Fatal(err)
	}
	daQ, _ := QuarterSlice(da, 2009, 1)

	windows := []int{1, 3, 12, 24}
	var prevRT, prevDA float64 = math.Inf(1), math.Inf(1)
	for _, w := range windows {
		sRT := WindowStdDev(rtQ.Values, w)
		sDA := WindowStdDev(daQ.Values, w)
		if sRT > prevRT+1e-9 {
			t.Errorf("RT σ increased at window %d: %.1f > %.1f", w, sRT, prevRT)
		}
		if sDA > prevDA+1e-9 {
			t.Errorf("DA σ increased at window %d: %.1f > %.1f", w, sDA, prevDA)
		}
		prevRT, prevDA = sRT, sDA
	}
	// Short-window ordering: RT(1h) > DA(1h) (Fig 5: 24.8 vs 20.0).
	if WindowStdDev(rtQ.Values, 1) <= WindowStdDev(daQ.Values, 1) {
		t.Error("RT 1h σ not above DA 1h σ")
	}
	// Convergence: the relative gap shrinks from 1 h to 24 h.
	gap1 := WindowStdDev(rtQ.Values, 1) - WindowStdDev(daQ.Values, 1)
	gap24 := math.Abs(WindowStdDev(rtQ.Values, 24) - WindowStdDev(daQ.Values, 24))
	if gap24 >= gap1 {
		t.Errorf("RT/DA σ gap did not shrink: 1h %.1f vs 24h %.1f", gap1, gap24)
	}
}

func TestFiveMinuteSeries(t *testing.T) {
	d := testData()
	from := time.Date(2009, 2, 10, 0, 0, 0, 0, time.UTC)
	s, err := d.FiveMinute("NYC", from, 12*24*7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 12*24*7 || s.Step != timeseries.FiveMinute {
		t.Fatalf("geometry: len=%d step=%v", s.Len(), s.Step)
	}
	// Deterministic regeneration.
	s2, _ := d.FiveMinute("NYC", from, 12*24*7)
	for i := range s.Values {
		if s.Values[i] != s2.Values[i] {
			t.Fatal("FiveMinute not deterministic")
		}
	}
	// The 5-minute series tracks the hourly series but is more volatile
	// ("the underlying five minute RT prices are even more volatile", §3.1).
	rt, _ := d.RT("NYC")
	hourlyWindow := rt.Slice(from, from.Add(7*24*time.Hour))
	if math.Abs(stats.Mean(s.Values)-stats.Mean(hourlyWindow.Values)) > 0.15*stats.Mean(hourlyWindow.Values) {
		t.Errorf("5-min mean %.1f far from hourly mean %.1f", stats.Mean(s.Values), stats.Mean(hourlyWindow.Values))
	}
	if stats.StdDev(s.Values) <= stats.StdDev(hourlyWindow.Values) {
		t.Error("5-min σ not above hourly σ")
	}
	// Out-of-range windows fail.
	if _, err := d.FiveMinute("NYC", time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC), 12); err == nil {
		t.Error("window before series should fail")
	}
	if _, err := d.FiveMinute("NOPE", from, 12); err == nil {
		t.Error("unknown hub should fail")
	}
}

// TestScaleExposed: the dataset keeps the stochastic scale s_h it drew for
// each hub, and the scale is positive.
func TestScaleExposed(t *testing.T) {
	d := testData()
	if d.scales["NYC"] <= 0 {
		t.Error("the NYC hub's stochastic scale should be positive")
	}
}

func TestGasFactorDiagnostic(t *testing.T) {
	d := testData()
	g := gasPath(d.Config.Seed, d.Start, d.Hours)
	if len(g) != d.Hours {
		t.Fatalf("gas length %d", len(g))
	}
	// 2008 peak well above the 2006 level; Q1 2009 collapse below it.
	mid2008 := g[(2*365+182)*24]
	early2006 := g[24*15]
	early2009 := g[(3*365+31)*24]
	if mid2008 < 1.4*early2006 {
		t.Errorf("2008 gas %.2f not elevated vs 2006 %.2f", mid2008, early2006)
	}
	if early2009 > 0.9*early2006 {
		t.Errorf("2009 gas %.2f did not collapse vs 2006 %.2f", early2009, early2006)
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate with bad config should panic")
		}
	}()
	MustGenerate(Config{Months: -5})
}
