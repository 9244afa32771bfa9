package market

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerroute/internal/timeseries"
)

// DefaultStart is the first instant of the paper's 39-month price data set
// (January 2006, §3).
var DefaultStart = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

// DefaultMonths is the length of the paper's price history: January 2006
// through March 2009.
const DefaultMonths = 39

// Config parameterizes trace generation.
type Config struct {
	// Seed drives every random stream; identical configs generate identical
	// datasets. Zero is a valid seed.
	Seed int64
	// Months is the trace length in calendar months. Defaults to
	// DefaultMonths.
	Months int
}

func (c Config) withDefaults() Config {
	if c.Months == 0 {
		c.Months = DefaultMonths
	}
	return c
}

// Dataset is a generated market history: hourly real-time and day-ahead
// price series for every hourly-market hub, plus the daily day-ahead series
// for the Pacific Northwest (Fig 3 only).
type Dataset struct {
	Config Config
	Start  time.Time
	Hours  int

	hubs   []Hub
	rt     map[string]*timeseries.Series
	da     map[string]*timeseries.Series
	nwDay  *timeseries.Series
	scales map[string]float64
}

// Generate builds a complete synthetic market history. Generation is
// deterministic in cfg.
func Generate(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Months < 0 {
		return nil, fmt.Errorf("market: negative months %d", cfg.Months)
	}
	start := DefaultStart.UTC().Truncate(time.Hour)
	end := start.AddDate(0, cfg.Months, 0)
	hours := int(end.Sub(start) / time.Hour)
	if hours <= 0 {
		return nil, fmt.Errorf("market: empty period")
	}

	d := &Dataset{
		Config: cfg,
		Start:  start,
		Hours:  hours,
		hubs:   Hubs(),
		rt:     make(map[string]*timeseries.Series, len(hubs)),
		da:     make(map[string]*timeseries.Series, len(hubs)),
		scales: make(map[string]float64, len(hubs)),
	}

	gas := gasPath(cfg.Seed, start, hours)
	factors := regionalFactors(cfg.Seed, hours)
	dayFactors := regionalDayFactors(cfg.Seed, hours)
	hodFactors := regionalHourOfDayFactors(cfg.Seed, hours)
	spikes := regionalSpikes(cfg.Seed, hours)
	congestion := regionalCongestion(cfg.Seed, hours)
	vols := regionalVolatility(cfg.Seed, start, hours)

	// Pre-mix the three regional components into one track per RTO.
	var regional [numRTOs][]float64
	for r := 0; r < int(numRTOs); r++ {
		track := make([]float64, hours)
		for t := 0; t < hours; t++ {
			track[t] = hourlyWeight*factors[r][t] +
				dailyWeight*dayFactors[r][t] +
				hourOfDayWeight*hodFactors[r][t]
		}
		regional[r] = track
	}

	for i := range d.hubs {
		h := d.hubs[i]
		rt, da, scale := generateHub(cfg.Seed, h, start, hours, gas, regional[h.RTO], spikes[h.RTO], congestion[h.RTO], vols[h.RTO])
		d.rt[h.ID] = rt
		d.da[h.ID] = da
		d.scales[h.ID] = scale
	}

	d.nwDay = generateNorthwestDaily(cfg.Seed, start, hours)
	return d, nil
}

// MustGenerate is Generate for known-good configs; it panics on error.
func MustGenerate(cfg Config) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Hubs returns the hourly-market hubs in the dataset (sorted by ID).
func (d *Dataset) Hubs() []Hub {
	out := make([]Hub, len(d.hubs))
	copy(out, d.hubs)
	return out
}

// RT returns the hourly real-time price series for a hub.
func (d *Dataset) RT(hubID string) (*timeseries.Series, error) {
	s, ok := d.rt[hubID]
	if !ok {
		return nil, fmt.Errorf("market: no real-time series for hub %q", hubID)
	}
	return s, nil
}

// DA returns the hourly day-ahead price series for a hub.
func (d *Dataset) DA(hubID string) (*timeseries.Series, error) {
	s, ok := d.da[hubID]
	if !ok {
		return nil, fmt.Errorf("market: no day-ahead series for hub %q", hubID)
	}
	return s, nil
}

// NorthwestDaily returns the Pacific Northwest's daily day-ahead series.
func (d *Dataset) NorthwestDaily() *timeseries.Series { return d.nwDay }

// gasPath generates the hourly natural-gas factor: the deterministic
// keypoint path plus a slow AR(1) wobble shared by all hubs.
func gasPath(seed int64, start time.Time, hours int) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x67a5_1111))
	out := make([]float64, hours)
	wobble := 0.0
	const phi = 0.995
	sigma := 0.004
	for t := 0; t < hours; t++ {
		wobble = phi*wobble + sigma*rng.NormFloat64()
		m := monthsFrom2006(start.Add(time.Duration(t) * time.Hour))
		g := gasBase(m) * (1 + wobble)
		if g < 0.3 {
			g = 0.3
		}
		out[t] = g
	}
	return out
}

// regionalFactors generates the six RTO AR(1) factors with cross-RTO
// innovation correlation from factorCorrelation. Each factor has unit
// stationary variance.
func regionalFactors(seed int64, hours int) [numRTOs][]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x52f0_2222))
	l, err := cholesky(rtoCorrelationMatrix(), int(numRTOs))
	if err != nil {
		// The matrix is fixed at compile time; failure is a programming
		// error, not an input error.
		panic(err)
	}
	var out [numRTOs][]float64
	for r := range out {
		out[r] = make([]float64, hours)
	}
	z := make([]float64, numRTOs)
	eps := make([]float64, numRTOs)
	innScale := math.Sqrt(1 - factorPhi*factorPhi)
	state := make([]float64, numRTOs)
	norm := tailNorm(rtoTailP)
	for t := 0; t < hours; t++ {
		for i := range z {
			z[i] = heavyNormal(rng, rtoTailP, norm)
		}
		mulLower(l, z, eps, int(numRTOs))
		for r := 0; r < int(numRTOs); r++ {
			state[r] = factorPhi*state[r] + innScale*eps[r]
			out[r][t] = state[r]
		}
	}
	return out
}

// regionalDayFactors generates the daily regional factors: one unit-
// variance AR(1) value per day per RTO, correlated across RTOs with the
// same structure as the hourly factors. The value is expanded to hourly
// resolution (constant within each UTC day).
func regionalDayFactors(seed int64, hours int) [numRTOs][]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x2ab9_7777))
	l, err := cholesky(rtoCorrelationMatrix(), int(numRTOs))
	if err != nil {
		panic(err)
	}
	days := (hours + 23) / 24
	var out [numRTOs][]float64
	for r := range out {
		out[r] = make([]float64, hours)
	}
	z := make([]float64, numRTOs)
	eps := make([]float64, numRTOs)
	state := make([]float64, numRTOs)
	innScale := math.Sqrt(1 - dayPhi*dayPhi)
	norm := tailNorm(rtoTailP)
	for day := 0; day < days; day++ {
		for i := range z {
			z[i] = heavyNormal(rng, rtoTailP, norm)
		}
		mulLower(l, z, eps, int(numRTOs))
		for r := 0; r < int(numRTOs); r++ {
			state[r] = dayPhi*state[r] + innScale*eps[r]
			for h := 0; h < 24; h++ {
				t := day*24 + h
				if t >= hours {
					break
				}
				out[r][t] = state[r]
			}
		}
	}
	return out
}

// regionalHourOfDayFactors generates, per RTO, 24 chains — one per hour of
// day — each evolving day-to-day as an AR(1), correlated across RTOs like
// the other factors. out[r][t] is the chain value for t's hour of day.
func regionalHourOfDayFactors(seed int64, hours int) [numRTOs][]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5dc3_8888))
	l, err := cholesky(rtoCorrelationMatrix(), int(numRTOs))
	if err != nil {
		panic(err)
	}
	days := (hours + 23) / 24
	var out [numRTOs][]float64
	for r := range out {
		out[r] = make([]float64, hours)
	}
	// chains[r][h] is RTO r's persistent premium for hour-of-day h.
	var chains [numRTOs][24]float64
	z := make([]float64, numRTOs)
	eps := make([]float64, numRTOs)
	innScale := math.Sqrt(1 - hourOfDayPhi*hourOfDayPhi)
	norm := tailNorm(rtoTailP)
	for day := 0; day < days; day++ {
		for h := 0; h < 24; h++ {
			for i := range z {
				z[i] = heavyNormal(rng, rtoTailP, norm)
			}
			mulLower(l, z, eps, int(numRTOs))
			t := day*24 + h
			for r := 0; r < int(numRTOs); r++ {
				chains[r][h] = hourOfDayPhi*chains[r][h] + innScale*eps[r]
				if t < hours {
					out[r][t] = chains[r][h]
				}
			}
		}
	}
	return out
}

// regionalSpike describes an RTO-wide scarcity event at one hour: the decay
// weight of the event at this hour times its severity draw.
type regionalSpike struct {
	severity float64 // 0 when no event is active
	eventID  int64   // identifies the event for per-hub participation draws
}

// regionalSpikes generates per-RTO spike event tracks. Severity is Exp(1)
// with occasional super-spikes; events persist 1–3 hours with decaying
// weight (spikeDecay).
func regionalSpikes(seed int64, hours int) [numRTOs][]regionalSpike {
	var out [numRTOs][]regionalSpike
	for r := 0; r < int(numRTOs); r++ {
		rng := rand.New(rand.NewSource(seed ^ (0x3c91_3333 + int64(r)*7919)))
		track := make([]regionalSpike, hours)
		var eventCounter int64
		for t := 0; t < hours; t++ {
			if rng.Float64() >= rtoSpikeRate[r] {
				continue
			}
			eventCounter++
			severity := rng.ExpFloat64()
			if rng.Float64() < superSpikeP {
				severity *= superSpikeMul
			}
			dur := spikeMinDuration + rng.Intn(spikeMaxDuration-spikeMinDuration+1)
			for k := 0; k < dur && t+k < hours; k++ {
				w := severity * spikeDecay[k]
				// Overlapping events: keep the stronger.
				if w > track[t+k].severity {
					track[t+k] = regionalSpike{severity: w, eventID: eventCounter}
				}
			}
		}
		out[r] = track
	}
	return out
}

// regionalCongestion generates per-RTO hourly congestion severity tracks.
// Congestion binds for multi-hour blocks (transmission constraints persist
// until demand recedes), so the track is event-based: events arrive at a
// rate that keeps the active-hour probability at congP, carry an Exp(1)
// severity, and last 2–5 hours. Persistence is what lets a router acting
// on the previous hour's prices still route around congested hubs (§6.4).
func regionalCongestion(seed int64, hours int) [numRTOs][]regionalSpike {
	const (
		minDur  = 2
		maxDur  = 5
		meanDur = (minDur + maxDur) / 2.0
	)
	arrivalRate := congP / meanDur
	var out [numRTOs][]regionalSpike
	for r := 0; r < int(numRTOs); r++ {
		rng := rand.New(rand.NewSource(seed ^ (0x77d2_5555 + int64(r)*6151)))
		track := make([]regionalSpike, hours)
		var eventCounter int64
		for t := 0; t < hours; t++ {
			if rng.Float64() >= arrivalRate {
				continue
			}
			eventCounter++
			severity := rng.ExpFloat64()
			dur := minDur + rng.Intn(maxDur-minDur+1)
			for k := 0; k < dur && t+k < hours; k++ {
				if severity > track[t+k].severity {
					track[t+k] = regionalSpike{severity: severity, eventID: eventCounter}
				}
			}
		}
		out[r] = track
	}
	return out
}

// regionalVolatility generates a per-RTO hourly volatility multiplier that
// moves month to month (volatility clustering: "the spread of prices in one
// month may double the next month", §3.3/Fig 11). The multiplier is
// log-normal with monthly AR structure and ≈ unit mean; hubs within an RTO
// share it, so within-RTO correlation is unaffected.
func regionalVolatility(seed int64, start time.Time, hours int) [numRTOs][]float64 {
	var out [numRTOs][]float64
	for r := 0; r < int(numRTOs); r++ {
		rng := rand.New(rand.NewSource(seed ^ (0x1f3d_6666 + int64(r)*4099)))
		track := make([]float64, hours)
		const (
			phi      = 0.6
			statStd  = 0.25
			innScale = 0.20 // statStd·√(1−φ²)
		)
		m := statStd * rng.NormFloat64()
		curMonth := -1
		vol := 1.0
		for t := 0; t < hours; t++ {
			at := start.Add(time.Duration(t) * time.Hour)
			mIdx := at.Year()*12 + int(at.Month())
			if mIdx != curMonth {
				curMonth = mIdx
				m = phi*m + innScale*rng.NormFloat64()
				vol = math.Exp(m - statStd*statStd/2)
			}
			track[t] = vol
		}
		out[r] = track
	}
	return out
}

// generateHub produces one hub's hourly RT and DA series and returns the
// stochastic scale s_h used (diagnostics and 5-minute generation).
func generateHub(seed int64, h Hub, start time.Time, hours int, gas []float64, factor []float64, spikes []regionalSpike, congestion []regionalSpike, vol []float64) (rt, da *timeseries.Series, scale float64) {
	// Deterministic profile with unit base, then solve for the base level
	// that hits MeanTarget exactly over the period.
	mu := make([]float64, hours)
	var muSum float64
	for t := 0; t < hours; t++ {
		at := start.Add(time.Duration(t) * time.Hour)
		localHour := h.Zone.LocalHour(at.Hour())
		v := math.Pow(gas[t], h.GasGamma) *
			SeasonFactor(h.Season, at.YearDay()) *
			WeekdayFactor(at.Weekday()) *
			DiurnalFactor(h.DiurnalAmp, localHour)
		mu[t] = v
		muSum += v
	}
	base := h.MeanTarget / (muSum / float64(hours))
	var muVar float64
	for t := range mu {
		mu[t] *= base
		d := mu[t] - h.MeanTarget
		muVar += d * d
	}
	muVar /= float64(hours)

	// Solve s_h so the 1%-trimmed standard deviation lands near StdTarget:
	// solve against an inflated raw target because trimming removes spike
	// mass.
	target := h.StdTarget * trimCompensation
	residual := (target*target - muVar - estimatedSpikeVariance(h)) / (1 + congVarCoeff)
	minScale := 0.30 * h.StdTarget
	if residual < minScale*minScale {
		residual = minScale * minScale
	}
	scale = math.Sqrt(residual)

	rng := rand.New(rand.NewSource(seed ^ hashID(h.ID)))
	rt = timeseries.New(start, timeseries.Hourly, hours)
	da = timeseries.New(start, timeseries.Hourly, hours)

	lambda := h.RTOLoading
	idioW := math.Sqrt(1 - lambda*lambda)
	innScale := math.Sqrt(1 - idioPhi*idioPhi)
	tw := h.tailWeight()
	twNorm := tailNorm(tw)
	idio := 0.0
	daIdio := 0.0

	// Per-hub participation in regional spike events is resolved once per
	// event via a hash of (hub, eventID) so participation is stable across
	// the event's hours.
	ownSpikeRate := h.SpikeRate * ownSpikeFrac

	// Day-level state for the DA market: yesterday's mean regional factor.
	dayFactorMean := 0.0
	var runningSum float64
	var runningN int

	ownSpike := 0.0 // remaining own-spike magnitude track
	ownDecayIdx := 0

	for t := 0; t < hours; t++ {
		at := start.Add(time.Duration(t) * time.Hour)
		localHour := h.Zone.LocalHour(at.Hour())

		// New day: roll the DA forecast factor.
		if t > 0 && at.Hour() == 0 {
			if runningN > 0 {
				dayFactorMean = runningSum / float64(runningN)
			}
			runningSum, runningN = 0, 0
		}
		runningSum += factor[t]
		runningN++

		idio = idioPhi*idio + innScale*heavyNormal(rng, tw, twNorm)
		stoch := scale * (lambda*factor[t] + idioW*idio)

		// Congestion premium (mean-compensated so MeanTarget still holds).
		cong := -congMeanCoeff * scale
		if ev := congestion[t]; ev.severity > 0 && participates2(h.ID, ev.eventID^0x436f6e67 /* "Cong" */, congShare) {
			cong += congScale * scale * ev.severity
		}
		if rng.Float64() < congOwnP {
			cong += congScale * congOwnMul * scale * rng.ExpFloat64()
		}
		stoch += cong

		// Regional spike participation.
		spike := 0.0
		if s := spikes[t]; s.severity > 0 {
			if participates(h.ID, s.eventID) {
				spike += h.SpikeScale * s.severity
			}
		}
		// Hub-own spikes (e.g. local congestion).
		if ownSpike > 0 && ownDecayIdx < len(spikeDecay) {
			spike += ownSpike * spikeDecay[ownDecayIdx]
			ownDecayIdx++
			if ownDecayIdx >= len(spikeDecay) {
				ownSpike = 0
			}
		}
		if rng.Float64() < ownSpikeRate {
			sev := rng.ExpFloat64()
			if rng.Float64() < superSpikeP {
				sev *= superSpikeMul
			}
			ownSpike = h.SpikeScale * sev
			ownDecayIdx = 0
			spike += ownSpike * spikeDecay[0]
			ownDecayIdx = 1
		}

		// Night-time negative dips.
		dip := 0.0
		if localHour <= 6 {
			if rng.Float64() < h.NegRate*24.0/7.0 {
				dip = dipScale * rng.ExpFloat64()
			}
		}

		price := mu[t] + vol[t]*(stoch+spike) - dip
		rt.Values[t] = clampPrice(softenFloor(price, 0.25*h.MeanTarget))

		// Day-ahead: expectation-based, smoother, no extreme tails
		// ("the outcome is based on expected load", §2.2).
		daIdio = idioPhi*daIdio + innScale*rng.NormFloat64()
		daSpike := 0.0
		if rng.Float64() < h.SpikeRate/5 {
			daSpike = h.SpikeScale / 2 * rng.ExpFloat64()
		}
		daPrice := mu[t] + scale*(lambda*daPhi*dayFactorMean+daNoiseFrac*idioW*daIdio) + daSpike
		da.Values[t] = clampPrice(softenFloor(daPrice, 0.25*h.MeanTarget))
	}
	return rt, da, scale
}

// softenFloor compresses the price distribution below a knee: marginal
// generation cost puts a soft floor under clearing prices, so the lower
// tail is far thinner than the upper one (real LMPs are right-skewed).
// Excursions below the knee are scaled by 0.35 — still allowing brief
// negative prices (§2.2) but making them rare.
func softenFloor(p, knee float64) float64 {
	if p >= knee {
		return p
	}
	return knee + 0.35*(p-knee)
}

// heavyNormal draws a unit-variance innovation with tail mixing: with
// probability p the draw is scaled by tailMul, and norm (= tailNorm(p))
// renormalizes the mixture to unit variance. This yields the leptokurtic
// innovation bodies real locational prices exhibit.
func heavyNormal(rng *rand.Rand, p, norm float64) float64 {
	z := rng.NormFloat64()
	if rng.Float64() < p {
		z *= tailMul
	}
	return z * norm
}

// clampPrice bounds prices to the plausible range observed in RTO markets
// (the paper notes spikes past $1900 and brief negative prices).
func clampPrice(p float64) float64 {
	if p < priceFloor {
		return priceFloor
	}
	if p > priceCeil {
		return priceCeil
	}
	return p
}

// participates decides, deterministically per (hub, event), whether the hub
// joins a regional spike event.
func participates(hubID string, eventID int64) bool {
	return participates2(hubID, eventID, spikeShare)
}

// participates2 is the deterministic per-(hub,event) coin flip with an
// arbitrary participation probability.
func participates2(hubID string, eventID int64, share float64) bool {
	x := uint64(hashID(hubID)) ^ (uint64(eventID) * 0x9e3779b97f4a7c15)
	// xorshift mix (splitmix64 finalizer).
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x>>11)/float64(1<<53) < share
}

// hashID maps a hub ID to a stable 64-bit value for seed derivation (FNV-1a).
func hashID(id string) int64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 0x100000001b3
	}
	return int64(h)
}

// generateNorthwestDaily produces the Fig 3 Pacific Northwest daily
// day-ahead series: hydro seasonality (April dips), weak gas coupling, low
// volatility.
func generateNorthwestDaily(seed int64, start time.Time, hours int) *timeseries.Series {
	h := northwest
	days := hours / 24
	rng := rand.New(rand.NewSource(seed ^ hashID(h.ID)))
	out := timeseries.New(start, timeseries.Daily, days)
	gas := gasPath(seed, start, hours) // same shared path; sampled daily
	ar := 0.0
	const phi = 0.92
	innScale := math.Sqrt(1 - phi*phi)
	// Unit profile first, then scale to the mean target.
	var sum float64
	vals := make([]float64, days)
	for d := 0; d < days; d++ {
		at := start.Add(time.Duration(d) * 24 * time.Hour)
		v := math.Pow(gas[d*24], h.GasGamma) * SeasonFactor(Hydro, at.YearDay())
		vals[d] = v
		sum += v
	}
	base := h.MeanTarget / (sum / float64(days))
	for d := 0; d < days; d++ {
		ar = phi*ar + innScale*rng.NormFloat64()
		price := vals[d]*base + h.StdTarget*0.35*ar
		if rng.Float64() < h.SpikeRate*24 {
			price += h.SpikeScale * rng.ExpFloat64()
		}
		out.Values[d] = clampPrice(softenFloor(price, 0.3*h.MeanTarget))
	}
	return out
}

// FiveMinute generates the 5-minute real-time price series for a hub over
// [from, from+n·5min), deterministically derived from the dataset's hourly
// RT prices plus intra-hour noise — the underlying five minute RT prices
// "are even more volatile" than hourly (§3.1, Fig 4).
func (d *Dataset) FiveMinute(hubID string, from time.Time, samples int) (*timeseries.Series, error) {
	hourly, err := d.RT(hubID)
	if err != nil {
		return nil, err
	}
	scale := d.scales[hubID]
	from = from.UTC().Truncate(timeseries.FiveMinute)
	rng := rand.New(rand.NewSource(d.Config.Seed ^ hashID(hubID) ^ 0x5f5f_4444 ^ from.Unix()))
	out := timeseries.New(from, timeseries.FiveMinute, samples)
	ar := 0.0
	innScale := math.Sqrt(1 - fiveMinPhi*fiveMinPhi)
	sigma := fiveMinFrac * scale
	for i := 0; i < samples; i++ {
		at := from.Add(time.Duration(i) * timeseries.FiveMinute)
		base, err := hourly.At(at)
		if err != nil {
			return nil, fmt.Errorf("market: 5-minute window outside hourly series: %w", err)
		}
		ar = fiveMinPhi*ar + innScale*rng.NormFloat64()
		v := base + sigma*ar
		if rng.Float64() < fiveMinSpikeP {
			v += fiveMinSpikeS * rng.ExpFloat64()
		}
		out.Values[i] = clampPrice(v)
	}
	return out, nil
}
