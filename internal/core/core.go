// Package core is the library's facade: it assembles the substrates — the
// wholesale market simulator, the synthetic CDN workload, the nine-cluster
// fleet, the §5.1 energy model, and the routing policies — into the paper's
// simulated world, and exposes the experiments as single calls.
//
// A System owns one deterministic world (fixed seeds). Run executes a
// cost experiment: an Akamai-like baseline plus a price-conscious optimizer
// under the configured constraints, returning both results and the savings.
// Sweeps reuse cached baselines, so calling Run in a loop over distance
// thresholds or energy models (Figs 15–20) stays fast, and a System is safe
// for concurrent use.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"powerroute/internal/cluster"
	"powerroute/internal/energy"
	"powerroute/internal/market"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
	"powerroute/internal/traffic"
	"powerroute/internal/units"
)

// Horizon selects the simulated period.
type Horizon int

const (
	// Trace24Day simulates the 24-day trace window at 5-minute steps
	// (§6.2, Figs 15–17).
	Trace24Day Horizon = iota
	// LongRun39Months simulates the full 39-month price history at hourly
	// steps driving the synthetic hour-of-week workload (§6.3, Figs 18–20).
	LongRun39Months
)

// String names the horizon.
func (h Horizon) String() string {
	switch h {
	case Trace24Day:
		return "24-day trace"
	case LongRun39Months:
		return "39-month synthetic"
	default:
		return fmt.Sprintf("Horizon(%d)", int(h))
	}
}

// Options configures system assembly: the -seed, -months and -days flags
// (Options.Register).
type Options struct {
	// Seed drives all synthetic data. Systems with equal options are
	// identical.
	Seed int64
	// MarketMonths overrides the price history length (default 39).
	MarketMonths int
	// TraceDays overrides the traffic trace length (default 24).
	TraceDays int
}

// targetUtilization sizes each cluster's capacity against its baseline
// peak demand.
const targetUtilization = 0.7

// System is one assembled simulated world.
type System struct {
	Market  *market.Dataset
	Trace   *traffic.Trace
	LongRun *traffic.LongRun
	Fleet   *cluster.Fleet

	traceDemand *sim.TraceDemand

	baselines flightGroup[baselineKey, baselineVal]
	statics   flightGroup[baselineKey, *StaticChoice]
}

type baselineKey struct {
	horizon Horizon
	energy  energy.Model
}

type baselineVal struct {
	caps []float64
	res  *sim.Result
}

// NewSystem assembles a world from the given options.
func NewSystem(opts Options) (*System, error) {
	mkt, err := market.Generate(market.Config{Seed: opts.Seed, Months: opts.MarketMonths})
	if err != nil {
		return nil, fmt.Errorf("core: market: %w", err)
	}
	tr, err := traffic.Generate(traffic.Config{Seed: opts.Seed + 1, Days: opts.TraceDays})
	if err != nil {
		return nil, fmt.Errorf("core: traffic: %w", err)
	}
	peaks := make([]float64, len(tr.States))
	for i, sd := range tr.States {
		for _, v := range sd.Rate {
			if v > peaks[i] {
				peaks[i] = v
			}
		}
	}
	fleet, err := cluster.DeriveFleet(peaks, targetUtilization)
	if err != nil {
		return nil, fmt.Errorf("core: fleet: %w", err)
	}
	demand, err := sim.FromTrace(tr)
	if err != nil {
		return nil, fmt.Errorf("core: trace demand: %w", err)
	}
	return &System{
		Market:      mkt,
		Trace:       tr,
		LongRun:     tr.LongRun(),
		Fleet:       fleet,
		traceDemand: demand,
	}, nil
}

// MustNewSystem is NewSystem for known-good options; it panics on error.
func MustNewSystem(opts Options) *System {
	s, err := NewSystem(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Scenario builds the base scenario for a horizon: this system's fleet,
// market and demand over the horizon's Start, Steps and Step, with the
// given energy model and reaction delay. Policy and every optional
// subsystem are left unset.
func (s *System) Scenario(h Horizon, em energy.Model, delay time.Duration) (sim.Scenario, error) {
	sc := sim.Scenario{
		Fleet:         s.Fleet,
		Energy:        em,
		Market:        s.Market,
		ReactionDelay: delay,
	}
	switch h {
	case Trace24Day:
		sc.Demand = s.traceDemand
		sc.Start = s.Trace.Start
		sc.Steps = s.Trace.Samples
		sc.Step = 5 * time.Minute
	case LongRun39Months:
		sc.Demand = s.LongRun
		sc.Start = s.Market.Start
		sc.Steps = s.Market.Hours
		sc.Step = time.Hour
	default:
		return sim.Scenario{}, fmt.Errorf("core: unknown horizon %v", h)
	}
	return sc, nil
}

// Baseline returns the cached Akamai-like baseline result and the derived
// 95/5 caps for a horizon and energy model. Concurrent callers for the same
// key share one computation (single flight), so parallel sweeps dedupe
// baseline runs instead of recomputing them.
func (s *System) Baseline(h Horizon, em energy.Model) ([]float64, *sim.Result, error) {
	v, err := s.baselines.Do(baselineKey{horizon: h, energy: em}, func() (baselineVal, error) {
		sc, err := s.Scenario(h, em, sim.DefaultReactionDelay)
		if err != nil {
			return baselineVal{}, err
		}
		caps, res, err := sim.DeriveCaps(sc)
		return baselineVal{caps: caps, res: res}, err
	})
	return v.caps, v.res, err
}

// RunConfig describes one optimizer experiment.
type RunConfig struct {
	Horizon Horizon
	Energy  energy.Model
	// DistanceThresholdKm bounds client-to-cluster distance (§6.1). 0
	// degenerates to nearest-cluster routing.
	DistanceThresholdKm float64
	// PriceThresholdDollars is the differential dead-band; defaults to the
	// paper's $5/MWh when 0 and is forced to 0 when Negative is set.
	PriceThresholdDollars float64
	// NoPriceThresholdDefault uses PriceThresholdDollars as-is even when 0
	// (for the ablation that removes the dead-band).
	NoPriceThresholdDefault bool
	// Follow95 enforces the baseline's per-cluster 95th percentiles.
	Follow95 bool
	// ReactionDelay lags decision prices (default 1 hour).
	ReactionDelay time.Duration
	// ReactImmediately forces a zero reaction delay (ReactionDelay of 0
	// otherwise means "use the default").
	ReactImmediately bool
}

func (c RunConfig) delay() time.Duration {
	if c.ReactImmediately {
		return 0
	}
	if c.ReactionDelay == 0 {
		return sim.DefaultReactionDelay
	}
	return c.ReactionDelay
}

func (c RunConfig) priceThreshold() float64 {
	if c.PriceThresholdDollars == 0 && !c.NoPriceThresholdDefault {
		return routing.DefaultPriceThreshold
	}
	return c.PriceThresholdDollars
}

// Outcome is the result of a Run: the optimizer against its baseline.
type Outcome struct {
	Config    RunConfig
	Baseline  *sim.Result
	Optimized *sim.Result
	Caps      []float64

	// Savings is 1 − optimized/baseline cost (the paper's headline
	// percentages).
	Savings float64
	// NormalizedCost is optimized/baseline (Figs 16/18's y-axis).
	NormalizedCost float64
}

// Run executes a price-optimizer experiment against the cached baseline.
func (s *System) Run(cfg RunConfig) (*Outcome, error) {
	caps, base, err := s.Baseline(cfg.Horizon, cfg.Energy)
	if err != nil {
		return nil, err
	}
	sc, err := s.Scenario(cfg.Horizon, cfg.Energy, cfg.delay())
	if err != nil {
		return nil, err
	}
	opt, err := routing.NewPriceOptimizer(s.Fleet, cfg.DistanceThresholdKm, cfg.priceThreshold())
	if err != nil {
		return nil, err
	}
	sc.Policy = opt
	if cfg.Follow95 {
		sc.SoftCaps = caps
	}
	res, err := sim.Run(sc)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Config:         cfg,
		Baseline:       base,
		Optimized:      res,
		Caps:           caps,
		Savings:        res.SavingsVersus(base),
		NormalizedCost: res.NormalizedCost(base),
	}, nil
}

// StaticChoice reports the best single-site deployment (§6.3's static
// comparison).
type StaticChoice struct {
	HubID          string
	Result         *sim.Result
	NormalizedCost float64 // against the Akamai-like baseline
}

// StaticCheapest evaluates placing the entire fleet at each hourly-market
// hub and returns the cheapest choice ("moving all the servers to the
// region with the lowest average price", §6.3). The 29-hub sweep is
// expensive, so results are cached per (horizon, energy) with the same
// single-flight semantics as Baseline; callers must treat the returned
// choice as read-only.
func (s *System) StaticCheapest(h Horizon, em energy.Model) (*StaticChoice, error) {
	return s.statics.Do(baselineKey{horizon: h, energy: em}, func() (*StaticChoice, error) {
		return s.staticCheapest(h, em)
	})
}

func (s *System) staticCheapest(h Horizon, em energy.Model) (*StaticChoice, error) {
	_, base, err := s.Baseline(h, em)
	if err != nil {
		return nil, err
	}
	hubs := market.Hubs()
	results := make([]*sim.Result, len(hubs))
	errs := make([]error, len(hubs))
	var wg sync.WaitGroup
	for i := range hubs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.runStatic(h, em, hubs[i])
		}(i)
	}
	wg.Wait()
	var best *StaticChoice
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if best == nil || res.TotalCost < best.Result.TotalCost {
			best = &StaticChoice{HubID: hubs[i].ID, Result: res}
		}
	}
	if best == nil {
		return nil, errors.New("core: no hubs evaluated")
	}
	best.NormalizedCost = best.Result.NormalizedCost(base)
	return best, nil
}

// runStatic simulates the whole fleet consolidated at one hub.
func (s *System) runStatic(h Horizon, em energy.Model, hub market.Hub) (*sim.Result, error) {
	one := []cluster.Cluster{{
		Code:     "ALL",
		HubID:    hub.ID,
		Location: hub.Location,
		Zone:     hub.Zone,
		Servers:  s.Fleet.TotalServers(),
		Capacity: units.HitRate(float64(s.Fleet.TotalServers()) * cluster.HitsPerServer),
	}}
	fleet, err := cluster.NewFleet(one)
	if err != nil {
		return nil, err
	}
	sc, err := s.Scenario(h, em, sim.DefaultReactionDelay)
	if err != nil {
		return nil, err
	}
	sc.Fleet = fleet
	pol, err := routing.NewAllToOne(fleet, 0)
	if err != nil {
		return nil, err
	}
	sc.Policy = pol
	return sim.Run(sc)
}
