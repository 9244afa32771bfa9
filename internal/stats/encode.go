package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary encoding of a WeightedHistogram, used by the simulation engine's
// checkpoint format: long-horizon histograms are pure numeric bulk, so they
// travel as a fixed little-endian layout instead of JSON. The layout is
// versioned through its magic so a reader can never misinterpret a blob
// from a different release:
//
//	[8]byte  magic "PRWHIST1"
//	uint64   number of bins
//	float64  min, max, total, sum, nonFinite
//	float64  bins[0..n)
const (
	whMagic = "PRWHIST1"

	// maxHistogramBins bounds decode-side allocation: no histogram in this
	// codebase is within orders of magnitude of it, so anything larger is a
	// corrupt or hostile length field, not data.
	maxHistogramBins = 1 << 24

	whHeaderBytes = 8 + 8 + 5*8
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (w *WeightedHistogram) MarshalBinary() ([]byte, error) {
	if w == nil {
		return nil, errors.New("stats: marshaling nil histogram")
	}
	out := make([]byte, 0, whHeaderBytes+8*len(w.bins))
	out = append(out, whMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(w.bins)))
	for _, v := range []float64{w.min, w.max, w.total, w.sum, w.nonFinite} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	for _, b := range w.bins {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(b))
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The blob must be
// exactly one MarshalBinary output: wrong magic, truncation, trailing
// bytes, or a structurally invalid histogram (no bins, max ≤ min,
// non-finite bounds) all fail loudly.
func (w *WeightedHistogram) UnmarshalBinary(data []byte) error {
	if len(data) < whHeaderBytes {
		return fmt.Errorf("stats: histogram blob truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != whMagic {
		return fmt.Errorf("stats: histogram blob has wrong magic %q", data[:8])
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n < 1 || n > maxHistogramBins {
		return fmt.Errorf("stats: histogram bin count %d out of range", n)
	}
	if want := whHeaderBytes + 8*int(n); len(data) != want {
		return fmt.Errorf("stats: histogram blob is %d bytes, want %d for %d bins", len(data), want, n)
	}
	f := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(data[16+8*i:]))
	}
	min, max, total, sum, nonFinite := f(0), f(1), f(2), f(3), f(4)
	if math.IsNaN(min) || math.IsInf(min, 0) || math.IsNaN(max) || math.IsInf(max, 0) || !(max > min) {
		return fmt.Errorf("stats: histogram bounds [%v, %v] invalid", min, max)
	}
	for _, v := range []float64{total, sum, nonFinite} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stats: non-finite histogram total/sum")
		}
	}
	bins := make([]float64, n)
	for i := range bins {
		v := f(5 + i)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("stats: histogram bin %d weight %v invalid", i, v)
		}
		bins[i] = v
	}
	*w = WeightedHistogram{
		min: min, max: max, bins: bins, total: total, sum: sum, nonFinite: nonFinite,
		span: max - min, nbinsF: float64(n),
	}
	return nil
}
