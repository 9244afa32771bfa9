// Package traffic synthesizes the CDN workload that substitutes for the
// paper's proprietary 24-day Akamai trace (§4): 5-minute samples of request
// load originating from each US state, destined for the CDN's public
// clusters, plus the aggregate global/US/9-region series of Fig 14.
//
// The model drives each state's demand from its census population, a
// local-time diurnal curve, a weekly pattern, the turn-of-year holiday dip
// visible in the paper's trace window (2008-12-19 through 2009-01-12), and
// an AR(1) multiplicative noise stream with occasional flash-crowd bursts.
// The aggregate is normalized so the US series peaks at DefaultUSPeak
// (the paper observed ~1.25M hits/s US, ~2M+ global).
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerroute/internal/geo"
	"powerroute/internal/timeseries"
)

// Trace window defaults matching Fig 14.
var DefaultStart = time.Date(2008, 12, 19, 0, 0, 0, 0, time.UTC)

// Default trace geometry and scale (§4, Fig 14).
const (
	DefaultDays        = 24
	DefaultUSPeak      = 1.25e6 // hits/s
	DefaultGlobalPeak  = 2.05e6 // hits/s
	DefaultPublicShare = 0.72   // fraction of US traffic on the 9 public clusters
)

// Config parameterizes workload synthesis. The trace starts at
// DefaultStart and is scaled to DefaultUSPeak, DefaultGlobalPeak and
// DefaultPublicShare.
type Config struct {
	Seed int64
	Days int // default DefaultDays
}

func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = DefaultDays
	}
	return c
}

// StateDemand is one state's public-cluster request stream at 5-minute
// resolution (hits/s destined to the nine public clusters).
type StateDemand struct {
	State geo.State
	Rate  []float64
}

// Trace is a synthesized workload.
type Trace struct {
	Config  Config
	Start   time.Time
	Samples int // number of 5-minute samples

	// States holds per-state public-cluster demand, sorted by state code.
	States []StateDemand

	global *timeseries.Series
	us     *timeseries.Series
	nine   *timeseries.Series
}

// SamplesPerHour is the number of 5-minute samples per hour.
const SamplesPerHour = 12

// SamplesPerDay is the number of 5-minute samples per day.
const SamplesPerDay = 24 * SamplesPerHour

// Generate synthesizes a workload trace deterministically from cfg.
func Generate(cfg Config) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Days < 0 {
		return nil, fmt.Errorf("traffic: negative days %d", cfg.Days)
	}
	samples := cfg.Days * SamplesPerDay
	if samples == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	start := DefaultStart.UTC().Truncate(timeseries.FiveMinute)

	states := geo.States()
	total := float64(geo.TotalUSPopulation())

	tr := &Trace{Config: cfg, Start: start, Samples: samples}
	tr.States = make([]StateDemand, len(states))

	// Per-state internet-penetration weight (fixed per seed): population
	// share modulated ±20%.
	wrng := rand.New(rand.NewSource(cfg.Seed ^ 0x7ea1_1001))
	weights := make([]float64, len(states))
	var wsum float64
	for i, s := range states {
		w := float64(s.Population) / total * (0.8 + 0.4*wrng.Float64())
		weights[i] = w
		wsum += w
	}
	for i := range weights {
		weights[i] /= wsum
	}

	// Generate per-state series with unit national scale; normalize after.
	usSeries := make([]float64, samples)
	for i, s := range states {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(i)*0x9e37 ^ 0x7ea1_2002))
		rates := make([]float64, samples)
		noise := 0.0
		const (
			noisePhi = 0.97
			noiseSig = 0.012
		)
		burst := 0.0 // flash-crowd multiplier excess, decays
		for t := 0; t < samples; t++ {
			at := start.Add(time.Duration(t) * timeseries.FiveMinute)
			frac := float64(t%SamplesPerHour) / SamplesPerHour
			localHour := float64(s.Zone.LocalHour(at.Hour())) + frac
			base := weights[i] *
				DiurnalLoad(localHour) *
				WeekLoad(at.Weekday()) *
				HolidayLoad(at)
			noise = noisePhi*noise + noiseSig*rng.NormFloat64()
			if rng.Float64() < 0.0004 { // rare flash crowd
				burst += 0.3 + 0.5*rng.Float64()
			}
			burst *= 0.97 // ~30-minute decay
			mult := (1 + noise) * (1 + burst)
			if mult < 0.2 {
				mult = 0.2
			}
			r := base * mult
			rates[t] = r
			usSeries[t] += r
		}
		tr.States[i] = StateDemand{State: s, Rate: rates}
	}

	// Normalize so the US total (public + private) peaks at
	// DefaultUSPeak; state series carry only the public-cluster share of
	// that.
	peak := 0.0
	for _, v := range usSeries {
		if v > peak {
			peak = v
		}
	}
	scale := DefaultUSPeak / peak * DefaultPublicShare
	for i := range tr.States {
		for t := range tr.States[i].Rate {
			tr.States[i].Rate[t] *= scale
		}
	}
	nine := timeseries.New(start, timeseries.FiveMinute, samples)
	us := timeseries.New(start, timeseries.FiveMinute, samples)
	for t := range usSeries {
		nine.Values[t] = usSeries[t] * scale
		us.Values[t] = nine.Values[t] / DefaultPublicShare
	}

	// Non-US traffic: flatter profile (demand spread across world time
	// zones), normalized so the global series peaks near DefaultGlobalPeak.
	grng := rand.New(rand.NewSource(cfg.Seed ^ 0x7ea1_3003))
	global := timeseries.New(start, timeseries.FiveMinute, samples)
	gNoise := 0.0
	nonUSLevel := float64(DefaultGlobalPeak - DefaultUSPeak)
	for t := 0; t < samples; t++ {
		at := start.Add(time.Duration(t) * timeseries.FiveMinute)
		utcHour := float64(at.Hour()) + float64(at.Minute())/60
		// Two broad activity waves (Europe, Asia) on top of a high floor.
		shape := 0.75 +
			0.15*math.Exp(-sqDist(utcHour, 14)/18) + // European afternoon
			0.10*math.Exp(-sqDist(utcHour, 6)/18) // Asian evening
		gNoise = 0.98*gNoise + 0.008*grng.NormFloat64()
		global.Values[t] = us.Values[t] + nonUSLevel*shape*(1+gNoise)*WeekLoad(at.Weekday())*HolidayLoad(at)
	}
	tr.global, tr.us, tr.nine = global, us, nine
	return tr, nil
}

// sqDist is the squared circular distance between two hours of day.
func sqDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 12 {
		d = 24 - d
	}
	return d * d
}

// MustGenerate is Generate for known-good configs; it panics on error.
func MustGenerate(cfg Config) *Trace {
	tr, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return tr
}

// Global returns the total worldwide hit rate series (Fig 14 top curve).
func (t *Trace) Global() *timeseries.Series { return t.global }

// US returns the total US hit rate series (public + private clusters).
func (t *Trace) US() *timeseries.Series { return t.us }

// NineRegion returns the 9-region public-cluster subset series, the
// workload the simulations route (Fig 14 bottom curve).
func (t *Trace) NineRegion() *timeseries.Series { return t.nine }

// TimeAt returns the instant of sample index i.
func (t *Trace) TimeAt(i int) time.Time {
	return t.Start.Add(time.Duration(i) * timeseries.FiveMinute)
}

// StateIndex returns the index of a state by postal code.
func (t *Trace) StateIndex(code string) (int, error) {
	for i := range t.States {
		if t.States[i].State.Code == code {
			return i, nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown state %q", code)
}

// DiurnalLoad is the within-day demand shape by local hour (fractional
// hours supported): a deep overnight trough and a broad evening peak, the
// canonical CDN pattern behind Fig 14's daily oscillation.
func DiurnalLoad(localHour float64) float64 {
	h := math.Mod(localHour, 24)
	if h < 0 {
		h += 24
	}
	// Piecewise-smooth curve anchored at: 04:00 trough (0.35), 10:00
	// shoulder (0.82), 15:00 plateau (0.88), 20:30 peak (1.0), decline.
	anchors := []struct{ h, v float64 }{
		{0, 0.62}, {2, 0.45}, {4, 0.35}, {6, 0.40}, {8, 0.62},
		{10, 0.82}, {12, 0.86}, {15, 0.88}, {18, 0.95}, {20.5, 1.00},
		{22, 0.88}, {24, 0.62},
	}
	for i := 1; i < len(anchors); i++ {
		if h <= anchors[i].h {
			a, b := anchors[i-1], anchors[i]
			w := (h - a.h) / (b.h - a.h)
			// Cosine easing avoids visible kinks at anchor points.
			w = (1 - math.Cos(w*math.Pi)) / 2
			return a.v*(1-w) + b.v*w
		}
	}
	return anchors[len(anchors)-1].v
}

// WeekLoad is the day-of-week demand factor (weekends run slightly lower).
func WeekLoad(d time.Weekday) float64 {
	switch d {
	case time.Saturday:
		return 0.95
	case time.Sunday:
		return 0.93
	default:
		return 1.0
	}
}

// HolidayLoad is the turn-of-year dip: Akamai's trace window spans the
// 2008 holidays, whose depressed traffic is visible in Fig 14.
func HolidayLoad(at time.Time) float64 {
	type md struct {
		m time.Month
		d int
	}
	dips := map[md]float64{
		{time.December, 23}: 0.92,
		{time.December, 24}: 0.82,
		{time.December, 25}: 0.75,
		{time.December, 26}: 0.85,
		{time.December, 31}: 0.88,
		{time.January, 1}:   0.80,
		{time.January, 2}:   0.92,
	}
	if v, ok := dips[md{at.Month(), at.Day()}]; ok {
		return v
	}
	return 1.0
}
