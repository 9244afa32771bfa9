package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMomentsSmall(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 4, 1e-12)
	approx(t, "StdDev", StdDev(xs), 2, 1e-12)
}

func TestMomentsEdgeCases(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice moments should be 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("single-sample variance should be 0")
	}
	if Kurtosis([]float64{3, 3, 3}) != 0 {
		t.Error("zero-variance kurtosis should be 0")
	}
}

func TestKurtosisGaussian(t *testing.T) {
	// A large Gaussian sample has raw kurtosis ≈ 3.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	approx(t, "Gaussian kurtosis", Kurtosis(xs), 3, 0.15)
}

func TestKurtosisHeavyTails(t *testing.T) {
	// Adding rare large spikes to a Gaussian must raise kurtosis well above
	// 3 — the mechanism behind the paper's κ=17.8 price changes (Fig 7).
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		if rng.Float64() < 0.002 {
			xs[i] += 30 * rng.NormFloat64()
		}
	}
	if k := Kurtosis(xs); k < 10 {
		t.Errorf("spiked kurtosis = %v, want > 10", k)
	}
}

func TestTrim(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	trimmed := Trim(xs, 0.01) // drop 5 from each end
	if len(trimmed) != 990 {
		t.Fatalf("Trim kept %d samples, want 990", len(trimmed))
	}
	if trimmed[0] != 6 || trimmed[len(trimmed)-1] != 995 {
		t.Errorf("Trim bounds = [%v, %v], want [6, 995]", trimmed[0], trimmed[len(trimmed)-1])
	}
	// Trimming tames outliers: spike one value and compare means.
	spiked := append([]float64(nil), xs...)
	spiked[0] = 1e9
	if m := Mean(Trim(spiked, 0.01)); m > 1000 {
		t.Errorf("trimmed mean %v still dominated by outlier", m)
	}
	// Degenerate cases.
	if got := Trim([]float64{1, 2}, 1.0); got != nil {
		t.Errorf("full trim should return nil, got %v", got)
	}
	if got := Trim([]float64{7}, 0.5); len(got) != 1 {
		t.Errorf("single sample with max trim should survive, got %v", got)
	}
	if got := Trim(xs, -1); len(got) != 1000 {
		t.Errorf("negative frac should trim nothing, kept %d", len(got))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "Quantile", got, c.want, 1e-12)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(empty) should fail")
	}
	// Clamping.
	if got, _ := Quantile(xs, -3); got != 1 {
		t.Errorf("Quantile(-3) = %v, want 1", got)
	}
	if got, _ := Quantile(xs, 42); got != 10 {
		t.Errorf("Quantile(42) = %v, want 10", got)
	}
}

func TestQuantileOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		if n == 0 {
			return true
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		q1, _ := Quantile(xs, 0.1)
		q5, _ := Quantile(xs, 0.5)
		q9, _ := Quantile(xs, 0.9)
		return q1 <= q5 && q5 <= q9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSelectQuantileMatchesSort checks the selection path against
// sort.Float64s + quantileSorted bit for bit over random samples of
// every size up to 300: few distinct values (long runs of duplicates),
// NaNs (which sort first), ±Inf, and the quantiles billing and the
// figures read plus random ones. Zeros are all +0: signed zeros compare
// equal, so neither path fixes which one lands at a position.
func TestSelectQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for n := 1; n <= 300; n++ {
		for trial := 0; trial < 4; trial++ {
			xs := make([]float64, n)
			distinct := 1 + rng.Intn(2*n)
			for i := range xs {
				xs[i] = float64(rng.Intn(distinct)) - float64(distinct)/3
				if trial > 1 && rng.Intn(12) == 0 {
					xs[i] = special[rng.Intn(len(special))]
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0, 0.05, 0.5, 0.95, 1, rng.Float64()} {
				scratch := append([]float64(nil), xs...)
				got, err := SelectQuantile(scratch, q)
				if err != nil {
					t.Fatal(err)
				}
				want := quantileSorted(sorted, q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d q=%v: selected %v, sorted %v (sample %v)", n, q, got, want, xs)
				}
			}
		}
	}
	if _, err := SelectQuantile(nil, 0.95); err != ErrEmpty {
		t.Errorf("SelectQuantile(empty) error %v, want ErrEmpty", err)
	}
}

// TestSelectKthAdversarial feeds selectKth the orders that defeat a
// naive pivot — sorted, reversed, organ-pipe, all equal — at sizes where
// the sort fallback may engage, and checks the selected statistic and the
// partition around it.
func TestSelectKthAdversarial(t *testing.T) {
	const n = 5000
	shapes := []struct {
		name  string
		value func(i int) float64
	}{
		{"sorted", func(i int) float64 { return float64(i) }},
		{"reversed", func(i int) float64 { return float64(n - i) }},
		{"organpipe", func(i int) float64 { return float64(min(i, n-i)) }},
		{"equal", func(int) float64 { return 7 }},
		{"sawtooth", func(i int) float64 { return float64(i % 17) }},
	}
	for _, shape := range shapes {
		name := shape.name
		for _, k := range []int{0, 1, n / 2, n * 95 / 100, n - 1} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.value(i)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			selectKth(xs, k)
			if xs[k] != sorted[k] {
				t.Fatalf("%s k=%d: selected %v, want %v", name, k, xs[k], sorted[k])
			}
			for i, x := range xs {
				if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
					t.Fatalf("%s k=%d: xs[%d] = %v on the wrong side of %v", name, k, i, x, xs[k])
				}
			}
		}
	}
}

func TestIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	iqr, err := ComputeIQR(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Q25", iqr.Q25, 3.25, 1e-12)
	approx(t, "Median", iqr.Median, 5.5, 1e-12)
	approx(t, "Q75", iqr.Q75, 7.75, 1e-12)
	if _, err := ComputeIQR(nil); err == nil {
		t.Error("ComputeIQR(empty) should fail")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r, _ := Correlation(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r, _ := Correlation(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v", r)
	}
	if r, _ := Correlation(xs, []float64{7, 7, 7, 7, 7}); r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
	if _, err := Correlation(xs, ys[:3]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Correlation(nil, nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestCorrelationIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 50000)
	ys := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	r, _ := Correlation(xs, ys)
	approx(t, "independent correlation", r, 0, 0.02)
}

func TestCorrelationBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(n uint8, mix float64) bool {
		size := int(n)%200 + 2
		mix = math.Mod(math.Abs(mix), 1)
		xs := make([]float64, size)
		ys := make([]float64, size)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = mix*xs[i] + (1-mix)*rng.NormFloat64()
		}
		r, err := Correlation(xs, ys)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Diff length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Diff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Diff([]float64{1}) != nil || Diff(nil) != nil {
		t.Error("Diff of short input should be nil")
	}
}

func TestFractionWithinBelow(t *testing.T) {
	xs := []float64{-30, -10, 0, 10, 30}
	approx(t, "FractionWithin(20)", FractionWithin(xs, 20), 0.6, 1e-12)
	approx(t, "FractionBelow(0)", FractionBelow(xs, 0), 0.4, 1e-12)
	if FractionWithin(nil, 5) != 0 || FractionBelow(nil, 5) != 0 {
		t.Error("empty fractions should be 0")
	}
}

func TestWindowMeans(t *testing.T) {
	xs := []float64{1, 3, 2, 4, 10, 20, 7}
	got := WindowMeans(xs, 2)
	want := []float64{2, 3, 15}
	if len(got) != 3 {
		t.Fatalf("WindowMeans length %d, want 3", len(got))
	}
	for i := range want {
		approx(t, "WindowMeans", got[i], want[i], 1e-12)
	}
	if WindowMeans(xs, 0) != nil || WindowMeans(xs, 8) != nil {
		t.Error("degenerate windows should return nil")
	}
	// Averaging reduces dispersion: σ of window means ≤ σ of raw data
	// (the effect Fig 5 tabulates).
	rng := rand.New(rand.NewSource(7))
	raw := make([]float64, 10000)
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	if StdDev(WindowMeans(raw, 24)) >= StdDev(raw) {
		t.Error("24-sample window means should have lower σ than raw data")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summarize = %+v", s)
	}
	approx(t, "Summary.Mean", s.Mean, 2.5, 1e-12)
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v", empty)
	}
}

func TestTrimmedSummary(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	xs[0] = 1e12 // outlier the trim must remove
	s := TrimmedSummary(xs, 0.01)
	if s.Max > 1e6 {
		t.Errorf("TrimmedSummary kept outlier: max=%v", s.Max)
	}
}
