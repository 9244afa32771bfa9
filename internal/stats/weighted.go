package stats

import (
	"errors"
	"fmt"
	"math"
)

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
