package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	xs := []float64{-50, -10, 0, 10, 50, 200}
	h, err := NewHistogram(xs, -100, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 6 {
		t.Errorf("Total = %d, want 6", h.Total)
	}
	if h.Over != 1 || h.Under != 0 {
		t.Errorf("Over/Under = %d/%d, want 1/0", h.Over, h.Under)
	}
	sum := h.Under + h.Over
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Total {
		t.Errorf("counts sum %d != total %d", sum, h.Total)
	}
	// -50 goes to bin 1, -10/0/10 straddle the middle, 50 to bin 3.
	if h.Counts[1] != 2 { // [-50,0): -50, -10
		t.Errorf("Counts[1] = %d, want 2", h.Counts[1])
	}
}

func TestHistogramBinEdges(t *testing.T) {
	h, err := NewHistogram(nil, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0)  // first bin
	h.Add(10) // exactly max: must land in last bin, not overflow
	h.Add(2)  // bin 1
	if h.Counts[0] != 1 || h.Counts[4] != 1 || h.Counts[1] != 1 {
		t.Errorf("edge binning wrong: %v (over=%d)", h.Counts, h.Over)
	}
	if c := h.BinCenter(0); math.Abs(c-1) > 1e-12 {
		t.Errorf("BinCenter(0) = %v, want 1", c)
	}
	if f := h.Fraction(0); math.Abs(f-1.0/3) > 1e-12 {
		t.Errorf("Fraction(0) = %v, want 1/3", f)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 10, 0); err == nil {
		t.Error("zero bins should fail")
	}
	if _, err := NewHistogram(nil, 10, 10, 4); err == nil {
		t.Error("min==max should fail")
	}
	if _, err := NewHistogram(nil, 10, 0, 4); err == nil {
		t.Error("max<min should fail")
	}
}

func TestHistogramFractionsSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(n uint16) bool {
		xs := make([]float64, int(n)%500+1)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 30
		}
		h, err := NewHistogram(xs, -60, 60, 24)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := range h.Counts {
			sum += h.Fraction(i)
		}
		outside := float64(h.Under+h.Over) / float64(h.Total)
		return math.Abs(sum+outside-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	h, _ := NewHistogram(nil, 0, 1, 2)
	if h.Fraction(0) != 0 {
		t.Error("empty histogram fraction should be 0")
	}
	if got := h.Fractions(); len(got) != 2 || got[0] != 0 {
		t.Errorf("Fractions() = %v", got)
	}
}

func TestMutualInformationIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	// I(X;X) is large; I(X;independent Y) ≈ 0.
	self, err := MutualInformation(xs, xs, 16)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = rng.NormFloat64()
	}
	indep, err := MutualInformation(xs, ys, 16)
	if err != nil {
		t.Fatal(err)
	}
	if self < 1 {
		t.Errorf("I(X;X) = %v, want > 1 bit", self)
	}
	if indep > 0.1 {
		t.Errorf("I(X;Y) for independent = %v, want ≈ 0", indep)
	}
	if self <= indep {
		t.Error("self-information should exceed independent information")
	}
}

func TestMutualInformationSeparatesCoupling(t *testing.T) {
	// A nonlinearly coupled pair (y = x²+noise) has near-zero correlation
	// but clearly positive mutual information — the effect behind the
	// paper's footnote 8 (same-RTO nonlinear relationships).
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 30000)
	ys := make([]float64, 30000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i]*xs[i] + 0.1*rng.NormFloat64()
	}
	r, _ := Correlation(xs, ys)
	mi, _ := MutualInformation(xs, ys, 16)
	if math.Abs(r) > 0.1 {
		t.Errorf("correlation = %v, want ≈ 0 for symmetric nonlinear coupling", r)
	}
	if mi < 0.3 {
		t.Errorf("mutual information = %v, want clearly > 0", mi)
	}
}

func TestMutualInformationErrors(t *testing.T) {
	if _, err := MutualInformation([]float64{1}, []float64{1, 2}, 4); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := MutualInformation(nil, nil, 4); err == nil {
		t.Error("empty should fail")
	}
	if _, err := MutualInformation([]float64{1, 2}, []float64{1, 2}, 1); err == nil {
		t.Error("1 bin should fail")
	}
}

func TestWeightedHistogram(t *testing.T) {
	w := NewWeightedHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		w.Add(float64(i), 1)
	}
	approx(t, "WeightedHistogram.Mean", w.Mean(), 49.5, 1e-9)
	q := w.Quantile(0.99)
	if q < 95 || q > 100 {
		t.Errorf("Quantile(0.99) = %v, want ≈ 99", q)
	}
	if w.Total() != 100 {
		t.Errorf("Total = %v", w.Total())
	}
	// Clamping out-of-range values.
	w.Add(-50, 1)
	w.Add(500, 1)
	if w.Total() != 102 {
		t.Error("clamped values must still be counted")
	}
	// Ignored weights.
	w.Add(50, 0)
	w.Add(50, -3)
	if w.Total() != 102 {
		t.Error("non-positive weights must be ignored")
	}
	// Degenerate construction.
	d := NewWeightedHistogram(5, 5, 0)
	d.Add(5, 1)
	if d.Total() != 1 {
		t.Error("degenerate histogram should still count")
	}
	var empty WeightedHistogram
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty weighted histogram should return zeros")
	}
}

// TestHistogramNonFinite checks NaN/±Inf samples are tallied, not binned:
// int(NaN) is implementation-defined (negative on amd64) and used to panic
// on the Counts index.
func TestHistogramNonFinite(t *testing.T) {
	h, err := NewHistogram(nil, -10, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(5)
	if h.NonFinite != 3 {
		t.Errorf("NonFinite = %d, want 3", h.NonFinite)
	}
	if h.Total != 4 {
		t.Errorf("Total = %d, want 4", h.Total)
	}
	if h.Under != 0 || h.Over != 0 {
		t.Errorf("±Inf leaked into Under/Over: %d/%d", h.Under, h.Over)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 1 {
		t.Errorf("binned %d samples, want only the finite one", sum)
	}
	// Construction from a slice containing non-finite values must not panic.
	h2, err := NewHistogram([]float64{math.NaN(), 0, math.Inf(1)}, -1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NonFinite != 2 || h2.Total != 3 {
		t.Errorf("NonFinite/Total = %d/%d, want 2/3", h2.NonFinite, h2.Total)
	}
}

// TestWeightedHistogramNonFinite checks that NaN/±Inf values and weights
// cannot poison the running sum (Mean would become NaN for the whole run).
func TestWeightedHistogramNonFinite(t *testing.T) {
	w := NewWeightedHistogram(0, 100, 10)
	w.Add(50, 2)
	w.Add(math.NaN(), 1)
	w.Add(math.Inf(1), 1)
	w.Add(math.Inf(-1), 1)
	w.Add(60, math.NaN())
	w.Add(60, math.Inf(1))
	if got := w.NonFinite(); got != 3 {
		t.Errorf("NonFinite = %v, want 3", got)
	}
	if got := w.Total(); got != 2 {
		t.Errorf("Total = %v, want 2 (only the finite sample)", got)
	}
	if got := w.Mean(); math.IsNaN(got) || got != 50 {
		t.Errorf("Mean = %v, want 50", got)
	}
	if got := w.Quantile(0.5); got < 50 || got > 60 {
		t.Errorf("Quantile(0.5) = %v, want within bin of 50", got)
	}
}

// TestWeightedHistogramBinaryRoundTrip: MarshalBinary/UnmarshalBinary are
// a bit-exact round trip, and corrupted blobs are rejected.
func TestWeightedHistogramBinaryRoundTrip(t *testing.T) {
	w := NewWeightedHistogram(0, 5500, 1100)
	w.Add(120, 3.5)
	w.Add(4800, 0.25)
	w.Add(-10, 1)           // clamps into bin 0
	w.Add(math.NaN(), 2)    // non-finite tally
	w.Add(math.Inf(1), 0.5) // non-finite tally

	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got WeightedHistogram
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, w) {
		t.Fatalf("round trip changed histogram: %+v vs %+v", got, *w)
	}
	if got.Mean() != w.Mean() || got.Quantile(0.99) != w.Quantile(0.99) ||
		got.Total() != w.Total() || got.NonFinite() != w.NonFinite() {
		t.Fatal("round trip changed derived statistics")
	}

	clone := w.Clone()
	clone.Add(100, 1)
	if clone.Total() == w.Total() {
		t.Fatal("Clone shares bins with the original")
	}

	corrupt := [][]byte{
		nil,
		blob[:8],
		blob[:len(blob)-1],
		append(append([]byte(nil), blob...), 0),
		append([]byte("XXXXXXXX"), blob[8:]...),
	}
	for i, b := range corrupt {
		var h WeightedHistogram
		if err := h.UnmarshalBinary(b); err == nil {
			t.Errorf("case %d: corrupt blob accepted", i)
		}
	}
	// Oversized bin count must be rejected before allocation.
	huge := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<40)
	var h WeightedHistogram
	if err := h.UnmarshalBinary(huge); err == nil {
		t.Error("absurd bin count accepted")
	}
}

// TestWeightedHistogramMerge: merging adds bins, totals, sums, and
// non-finite tallies; mismatched geometry and nil are rejected.
func TestWeightedHistogramMerge(t *testing.T) {
	a := NewWeightedHistogram(0, 100, 10)
	b := NewWeightedHistogram(0, 100, 10)
	a.Add(5, 2)
	a.Add(95, 1)
	a.Add(math.NaN(), 3)
	b.Add(5, 1)
	b.Add(55, 4)

	joint := NewWeightedHistogram(0, 100, 10)
	for _, add := range [][2]float64{{5, 2}, {95, 1}, {5, 1}, {55, 4}} {
		joint.Add(add[0], add[1])
	}
	joint.Add(math.NaN(), 3)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Total(), joint.Total(); got != want {
		t.Errorf("merged total %v, want %v", got, want)
	}
	if got, want := a.Mean(), joint.Mean(); got != want {
		t.Errorf("merged mean %v, want %v", got, want)
	}
	if got, want := a.NonFinite(), joint.NonFinite(); got != want {
		t.Errorf("merged non-finite %v, want %v", got, want)
	}
	if got, want := a.Quantile(0.5), joint.Quantile(0.5); got != want {
		t.Errorf("merged median %v, want %v", got, want)
	}

	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
	if err := a.Merge(NewWeightedHistogram(0, 100, 11)); err == nil {
		t.Error("bin-count mismatch accepted")
	}
	if err := a.Merge(NewWeightedHistogram(0, 200, 10)); err == nil {
		t.Error("bounds mismatch accepted")
	}
}
