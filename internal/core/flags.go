package core

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"powerroute/internal/batchspec"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
)

// DefaultSeed is the canonical world's seed, the default of every
// binary's -seed.
const DefaultSeed = 42

// Register registers -seed, -months and -days on fs. Every process that
// builds, serves or feeds one world registers them here, so they share
// names and defaults and must be given equal values.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.Int64Var(&o.Seed, "seed", DefaultSeed, "world seed (regenerates all synthetic data; must match across every process serving or feeding one world)")
	fs.IntVar(&o.MarketMonths, "months", 0, "override market history length in months (0 = the paper's 39)")
	fs.IntVar(&o.TraceDays, "days", 0, "override traffic trace length in days (0 = the paper's 24)")
}

// WorldFlags declares the world powerrouted serves and powerroute-coord
// fronts: the Options plus the horizon, the §6.1 optimizer's two
// thresholds, its reaction delay, the deferrable batch class and the
// burst-exact clique world. The coordinator and every shard register the
// same flags and build the joint scenario through Scenario, so they agree
// bit for bit.
type WorldFlags struct {
	Options
	Horizon        string        // "longrun" (hourly, 39 months) or "trace" (5-minute, 24 days)
	ThresholdKm    float64       // optimizer distance threshold
	PriceThreshold float64       // optimizer price dead-band ($/MWh)
	ReactionDelay  time.Duration // lag before the router sees a price
	BatchSpec      string        // batchspec.Parse's spec; empty = no batch class
	BurstHubs      string        // ParseBurstHubs's spec; empty = the derived fleet
}

// Register registers the nine world flags on fs.
func (w *WorldFlags) Register(fs *flag.FlagSet) {
	w.Options.Register(fs)
	fs.StringVar(&w.Horizon, "horizon", "longrun", "routing interval source: longrun (hourly) or trace (5-minute)")
	fs.Float64Var(&w.ThresholdKm, "threshold-km", 1500, "optimizer distance threshold (the paper's elbow; must match across the coordinator and its shards)")
	fs.Float64Var(&w.PriceThreshold, "price-threshold", routing.DefaultPriceThreshold, "price differential dead-band ($/MWh)")
	fs.DurationVar(&w.ReactionDelay, "reaction-delay", sim.DefaultReactionDelay, "lag between a price taking effect and the router seeing it")
	fs.StringVar(&w.BatchSpec, "batch-spec", "", "deferrable batch class: w=<watts/server>,pct=<price quantile>[,guard=0|1][,migrate=0|1] (empty = no batch class)")
	fs.StringVar(&w.BurstHubs, "burst-hubs", "", "the burst-exact clique world instead of the derived one: comma-separated hub pairs, e.g. NP15+SP15,NYC+DOM (soft caps armed, burst gate fleet-coordinated; a coordinator brokers its shards' burst-token leases)")
}

// ErrUsage marks a WorldFlags.Scenario error that the flag values cause,
// as opposed to a world that fails to build: errors.Is(err, ErrUsage)
// tells a binary to exit 2 rather than 1.
var ErrUsage = errors.New("core: invalid world flags")

// usageError keeps its cause's message and also matches ErrUsage.
type usageError struct{ error }

func (e usageError) Unwrap() []error { return []error{e.error, ErrUsage} }

// Scenario builds the joint scenario the flags declare: the derived fleet
// under the price optimizer over the chosen horizon, or, with BurstHubs,
// the burst world's hourly scenario (BurstScenario); either way with the
// batch class when BatchSpec is set, against the joint world before any
// shard split. The burst world's scenario comes with its gate armed as
// sim.SelfGate; a lease-fed shard swaps in a sim.LeaseStore.
func (w *WorldFlags) Scenario() (sim.Scenario, error) {
	var pairs [][2]string
	if w.BurstHubs != "" {
		if w.BatchSpec != "" {
			return sim.Scenario{}, usageError{errors.New("-burst-hubs and -batch-spec are not supported together")}
		}
		if w.Horizon != "longrun" {
			return sim.Scenario{}, usageError{errors.New("-burst-hubs serves the hourly long-run horizon only")}
		}
		var err error
		if pairs, err = ParseBurstHubs(w.BurstHubs); err != nil {
			return sim.Scenario{}, usageError{err}
		}
	}
	horizon, ok := map[string]Horizon{"longrun": LongRun39Months, "trace": Trace24Day}[w.Horizon]
	if !ok {
		return sim.Scenario{}, usageError{fmt.Errorf("unknown horizon %q (longrun or trace)", w.Horizon)}
	}

	sys, err := NewSystem(w.Options)
	if err != nil {
		return sim.Scenario{}, err
	}
	var sc sim.Scenario
	if pairs != nil {
		bw, err := sys.BurstWorld(pairs, w.ThresholdKm, w.PriceThreshold)
		if err != nil {
			return sim.Scenario{}, err
		}
		if sc, err = sys.BurstScenario(bw, w.ThresholdKm, w.PriceThreshold, w.ReactionDelay); err != nil {
			return sim.Scenario{}, err
		}
	} else {
		if sc, err = sys.Scenario(horizon, energy.OptimisticFuture, w.ReactionDelay); err != nil {
			return sim.Scenario{}, err
		}
		if sc.Policy, err = routing.NewPriceOptimizer(sys.Fleet, w.ThresholdKm, w.PriceThreshold); err != nil {
			return sim.Scenario{}, err
		}
	}
	if w.BatchSpec != "" {
		if sc.Batch, err = batchspec.Parse(w.BatchSpec, sys.Fleet, sys.Market); err != nil {
			return sim.Scenario{}, usageError{err}
		}
	}
	return sc, nil
}
