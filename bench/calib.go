package main

import (
	"math"
	"sort"
	"time"
)

// The reference machine is a shared VM whose speed drifts by 15–45% over
// minutes, and stalls for tens of milliseconds at a time, with no steal
// time to show for it: other tenants contend for its cores and caches.
// Raw wall-clock medians of back-to-back runs then differ by more than
// any useful regression bound. The harness therefore times two fixed
// kernels before and after every rep — they call no code under test —
// and reports the rep at the reference machine speed:
//
//	reported time = measured time × √(speed before · speed after) / refCalibMops
//
// and rates by the inverse. The kernels are typical Go work: sorting
// floats (branchy, like the router's preference sort) and filling and
// probing a map (hashing and memory). Log engine-hourly throughput
// against the log of their geometric mean has slope 1.00 and correlation
// 0.95 over 20 s windows, where single-chain arithmetic and pointer-chase
// kernels gave slopes of 1.6–2.2. Over 24 windows of 20 s in a loaded
// phase, bracketing each rep cut the spread (interquartile range over
// median) of the median rep time from 0.142 raw to 0.009, and of its
// 90th percentile from 0.251 to 0.065; one speed per window left 0.012
// and 0.116.

// refCalibMops is the calibration speed of the reference machine, a
// 2-vCPU Intel Xeon VM with a 105 MiB shared L3, in a quiet phase.
const refCalibMops = 25.0

type calibrator struct {
	samples []float64 // geometric-mean kernel speed, Mop/s
	src     []float64 // the fixed values the sort kernel sorts
	buf     []float64
	sink    uint64
}

// measure takes one calibration sample, about 4 ms, and returns it in
// Mop/s.
func (c *calibrator) measure() float64 {
	v := math.Sqrt(c.sortSpeed() * c.mapSpeed())
	c.samples = append(c.samples, v)
	return v
}

// bracket runs f between two calibration samples and returns the scale
// that converts f's times to the reference speed. Consecutive brackets
// share their middle sample.
func (c *calibrator) bracket(f func() error) (float64, error) {
	if len(c.samples) == 0 {
		c.measure()
	}
	before := c.samples[len(c.samples)-1]
	err := f()
	return math.Sqrt(before*c.measure()) / refCalibMops, err
}

// speed is the run's median calibration in Mop/s.
func (c *calibrator) speed() float64 { return median(c.samples) }

func (c *calibrator) sortSpeed() float64 {
	if c.src == nil {
		c.src = make([]float64, 1<<15)
		c.buf = make([]float64, len(c.src))
		x := uint64(7)
		for i := range c.src {
			x = xorshift(x)
			c.src[i] = float64(x >> 11)
		}
	}
	t0 := time.Now()
	copy(c.buf, c.src)
	sort.Float64s(c.buf)
	return float64(len(c.src)) / time.Since(t0).Seconds() / 1e6
}

func (c *calibrator) mapSpeed() float64 {
	const n = 1 << 14
	t0 := time.Now()
	m := make(map[uint64]uint64, n)
	x := uint64(11)
	for i := 0; i < n; i++ {
		x = xorshift(x)
		m[x&0xffffff] += x
	}
	var s uint64
	for i := uint64(0); i < n; i++ {
		s += m[i*2654435761&0xffffff]
	}
	d := time.Since(t0)
	c.sink += s
	return 2 * n / d.Seconds() / 1e6
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
