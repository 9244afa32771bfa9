package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Online accumulates streaming moments with Welford's algorithm. The
// simulation engine meters per-cluster costs and distances this way so long
// runs (39 months of hours) do not need to retain every sample.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance (0 if fewer than two
// observations).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest observation (0 if empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 if empty).
func (o *Online) Max() float64 { return o.max }

// Merge folds another accumulator into o (parallel reduction).
func (o *Online) Merge(p *Online) {
	if p.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *p
		return
	}
	n := o.n + p.n
	d := p.mean - o.mean
	mean := o.mean + d*float64(p.n)/float64(n)
	m2 := o.m2 + p.m2 + d*d*float64(o.n)*float64(p.n)/float64(n)
	min := o.min
	if p.min < min {
		min = p.min
	}
	max := o.max
	if p.max > max {
		max = p.max
	}
	*o = Online{n: n, mean: mean, m2: m2, min: min, max: max}
}

// WeightedSample is a value with a non-negative weight; the simulator uses
// hit counts as weights when describing client-server distance (Fig 17's
// mean and 99th-percentile distances are hit-weighted).
type WeightedSample struct {
	Value  float64
	Weight float64
}

// WeightedMean returns Σwv/Σw, or 0 when the total weight is zero.
func WeightedMean(samples []WeightedSample) float64 {
	var sw, swv float64
	for _, s := range samples {
		sw += s.Weight
		swv += s.Weight * s.Value
	}
	if sw == 0 {
		return 0
	}
	return swv / sw
}

// WeightedQuantile returns the smallest value v such that the weight of
// samples ≤ v is at least q of the total weight. Returns an error when the
// sample is empty or total weight is zero.
func WeightedQuantile(samples []WeightedSample, q float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]WeightedSample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Value < sorted[j].Value })
	var total float64
	for _, s := range sorted {
		total += s.Weight
	}
	if total == 0 {
		return 0, ErrEmpty
	}
	target := q * total
	var cum float64
	for _, s := range sorted {
		cum += s.Weight
		if cum >= target {
			return s.Value, nil
		}
	}
	return sorted[len(sorted)-1].Value, nil
}

// WeightedHistogram accumulates weighted values into fixed-width bins and
// can answer weighted quantile queries in O(bins); the simulator uses it to
// track client-server distance distributions over millions of allocations
// without retaining them.
//
// ckpt:state MarshalBinary,UnmarshalBinary,Merge
type WeightedHistogram struct {
	min, max  float64
	bins      []float64
	total     float64
	sum       float64 // Σ weight·value, for the mean
	nonFinite float64 // weight carried by NaN/±Inf values

	// span and nbinsF cache max−min and float64(len(bins)) for Add's bin
	// arithmetic. Derived, never serialized; every constructor (New and
	// UnmarshalBinary) sets them from the same expressions Add used to
	// evaluate inline, so bin placement is bit-identical.
	span   float64 // ckpt:derived max−min, rebuilt by every constructor
	nbinsF float64 // ckpt:derived float64(len(bins)), rebuilt by every constructor
}

// NewWeightedHistogram creates a histogram over [min,max] with the given
// number of bins. Values are clamped into range. The full bin array is
// allocated up front — the histogram never grows.
func NewWeightedHistogram(min, max float64, bins int) *WeightedHistogram {
	if bins < 1 {
		bins = 1
	}
	if max <= min {
		max = min + 1
	}
	return &WeightedHistogram{min: min, max: max, bins: make([]float64, bins), span: max - min, nbinsF: float64(bins)}
}

// Add records value with the given weight. Non-positive or non-finite
// weights are ignored; non-finite values are tallied in NonFinite instead
// of a bin (a NaN would clamp into bin 0 and poison the running sum, so
// Mean would return NaN for the whole run).
func (w *WeightedHistogram) Add(value, weight float64) {
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		w.nonFinite += weight
		return
	}
	w.bins[w.BinIndex(value)] += weight
	w.total += weight
	w.sum += weight * value
}

// BinIndex returns the bin a finite value falls into, including the
// clamping into range. Callers that record the same value repeatedly (the
// simulation engine's fixed client-to-cluster distances) precompute it
// once and use AddToBin on the hot path.
func (w *WeightedHistogram) BinIndex(value float64) int {
	// NOTE: keep this a division by span — folding it into a reciprocal
	// multiply changes rounding and shifts edge values across bins.
	i := int((value - w.min) / w.span * w.nbinsF)
	if i < 0 {
		i = 0
	}
	if i >= len(w.bins) {
		i = len(w.bins) - 1
	}
	return i
}

// AddToBin records a finite value with its precomputed BinIndex, skipping
// the bin arithmetic. The weight guard and the accumulation are Add's,
// bit for bit; the value must be finite (non-finite values have no bin —
// use Add, which tallies them separately).
func (w *WeightedHistogram) AddToBin(i int, value, weight float64) {
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return
	}
	w.bins[i] += weight
	w.total += weight
	w.sum += weight * value
}

// Mean returns the weighted mean of the recorded values.
func (w *WeightedHistogram) Mean() float64 {
	if w.total == 0 {
		return 0
	}
	return w.sum / w.total
}

// Quantile returns the approximate weighted q-quantile (upper edge of the
// bin where the cumulative weight crosses q).
func (w *WeightedHistogram) Quantile(q float64) float64 {
	if w.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * w.total
	var cum float64
	width := (w.max - w.min) / float64(len(w.bins))
	for i, b := range w.bins {
		cum += b
		if cum >= target {
			return w.min + float64(i+1)*width
		}
	}
	return w.max
}

// Total returns the total recorded weight (finite values only).
func (w *WeightedHistogram) Total() float64 { return w.total }

// NonFinite returns the weight offered with NaN/±Inf values.
func (w *WeightedHistogram) NonFinite() float64 { return w.nonFinite }

// Bounds returns the histogram's [min, max] value range.
func (w *WeightedHistogram) Bounds() (min, max float64) { return w.min, w.max }

// NumBins returns the number of bins.
func (w *WeightedHistogram) NumBins() int { return len(w.bins) }

// Clone returns an independent deep copy (nil for a nil histogram).
func (w *WeightedHistogram) Clone() *WeightedHistogram {
	if w == nil {
		return nil
	}
	c := *w
	c.bins = append([]float64(nil), w.bins...)
	return &c
}

// Merge folds another histogram with identical geometry into this one:
// per-bin weights, totals, value sums, and non-finite tallies all add.
// The simulation engine's shard merge uses it to combine per-region
// distance distributions into the fleet-wide one.
func (w *WeightedHistogram) Merge(o *WeightedHistogram) error {
	if o == nil {
		return errors.New("stats: merging nil histogram")
	}
	if w.min != o.min || w.max != o.max || len(w.bins) != len(o.bins) {
		return fmt.Errorf("stats: merging histogram [%v, %v]×%d into [%v, %v]×%d",
			o.min, o.max, len(o.bins), w.min, w.max, len(w.bins))
	}
	for i, b := range o.bins {
		w.bins[i] += b
	}
	w.total += o.total
	w.sum += o.sum
	w.nonFinite += o.nonFinite
	return nil
}
