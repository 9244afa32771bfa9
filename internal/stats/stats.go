// Package stats implements the descriptive statistics the paper's empirical
// market analysis relies on (§3): moments (including 1%-trimmed versions and
// kurtosis, Fig 6–7, 10), quantiles and inter-quartile ranges (Fig 11–12),
// histograms (Fig 7, 10, 13), Pearson correlation (Fig 8), mutual
// information (§3.2 footnote 8), and windowed volatility (Fig 5).
//
// Everything operates on plain []float64 so the package has no dependencies
// beyond the standard library.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (denominator n), or 0 for
// fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Kurtosis returns the (raw, non-excess) kurtosis μ₄/σ⁴ of xs. A Gaussian
// has kurtosis 3; the paper reports values from 4.6 (Chicago prices) to 466
// (Austin−Virginia differentials), i.e. very heavy tails. Returns 0 for
// fewer than two samples or zero variance.
func Kurtosis(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	n := float64(len(xs))
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4 / (m2 * m2)
}

// Summary bundles the moments the paper tabulates per location (Fig 6).
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Kurtosis float64
	Min      float64
	Max      float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Kurtosis = Kurtosis(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// Trim returns a copy of xs with the lowest and highest frac/2 fraction of
// samples removed (so Trim(xs, 0.01) discards 1% of the data in total,
// matching the paper's "1% trimmed" statistics in Fig 6). frac is clamped
// to [0, 0.5].
func Trim(xs []float64, frac float64) []float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 0.5 {
		frac = 0.5
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(math.Round(float64(len(sorted)) * frac / 2))
	if 2*k >= len(sorted) {
		return nil
	}
	return sorted[k : len(sorted)-k]
}

// TrimmedSummary computes Summarize over the trimmed sample.
func TrimmedSummary(xs []float64, frac float64) Summary {
	return Summarize(Trim(xs, frac))
}

// Quantile returns the q-th quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It returns an error for an empty
// sample; q is clamped to [0,1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// quantileSorted computes the interpolated quantile of an already-sorted
// non-empty slice.
func quantileSorted(sorted []float64, q float64) float64 {
	lo, hi, w := quantilePos(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-w) + sorted[hi]*w
}

// quantilePos clamps q to [0,1] and locates the q-th quantile of n sorted
// samples: the order statistics lo and hi (equal, or hi = lo+1) that
// bracket it and the weight w of sorted[hi].
func quantilePos(n int, q float64) (lo, hi int, w float64) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// SelectQuantile returns Quantile(xs, q) bit for bit, but by selection
// instead of a full sort: it reorders xs in place only as far as needed
// to find the one or two order statistics the interpolation reads, in
// expected linear time. Pass a scratch copy to keep the original order.
// NaNs order first, as in sort.Float64s; like there, signed zeros compare
// equal, so which zero lands at a position is unspecified in both.
func SelectQuantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	nans := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	lo, hi, w := quantilePos(len(xs), q)
	if lo >= nans {
		selectKth(xs[nans:], lo-nans)
	}
	if lo == hi {
		return xs[lo], nil
	}
	// The hi-th order statistic is the least of xs[hi:]: after the
	// selection nothing there orders before xs[lo], and when lo is the
	// last NaN, xs[hi:] holds every non-NaN value. A NaN at hi is itself
	// the statistic.
	next := xs[hi]
	if hi >= nans {
		for _, x := range xs[hi+1:] {
			if x < next {
				next = x
			}
		}
	}
	return xs[lo]*(1-w) + next*w, nil
}

// selectKth reorders the NaN-free xs so that xs[k] holds the k-th
// smallest value, with nothing greater before it and nothing smaller
// after it. It is Hoare's find with a median-of-three pivot; should the
// partitions keep coming out lopsided it sorts what is left, which bounds
// the worst case at O(n log n).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] ≤ pivot ≤ xs[i..hi], and every slot between j and
		// i holds the pivot itself.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Quantiles returns several quantiles of xs in one sort.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

// IQR describes a distribution by its median and inter-quartile range, the
// representation used by the paper's monthly and hour-of-day differential
// plots (Fig 11, 12).
type IQR struct {
	Q25, Median, Q75 float64
}

// ComputeIQR returns the quartiles of xs.
func ComputeIQR(xs []float64) (IQR, error) {
	qs, err := Quantiles(xs, 0.25, 0.5, 0.75)
	if err != nil {
		return IQR{}, err
	}
	return IQR{Q25: qs[0], Median: qs[1], Q75: qs[2]}, nil
}

// Correlation returns the Pearson correlation coefficient of the paired
// samples xs and ys. It returns 0 when either side has zero variance and an
// error when the lengths differ or the sample is empty.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: correlation length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Diff returns the successive differences xs[i+1]-xs[i]; the paper's
// hour-to-hour price change distributions (Fig 7) are Diff applied to an
// hourly price series.
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// FractionWithin returns the fraction of samples with |x| ≤ bound, as used
// in Fig 7's "78% of samples within ±$20" annotations.
func FractionWithin(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if math.Abs(x) <= bound {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionBelow returns the fraction of samples strictly below threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// WindowMeans averages xs over consecutive non-overlapping windows of the
// given size, discarding any incomplete trailing window. Fig 5 applies this
// with windows of 1–24 hours before taking standard deviations.
func WindowMeans(xs []float64, window int) []float64 {
	if window <= 0 || len(xs) < window {
		return nil
	}
	n := len(xs) / window
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = Mean(xs[i*window : (i+1)*window])
	}
	return out
}
