package experiments

import (
	"fmt"
	"strings"

	"powerroute/internal/cluster"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/report"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
)

func init() {
	registry = append(registry,
		Definition{"ext-storage", "Extension: battery arbitrage & storage-aware routing", ExtStorageArbitrage},
		Definition{"ext-peakshave", "Extension: demand-charge tariff & battery peak shaving", ExtPeakShaving},
	)
}

// fleetBatteries sizes one battery per cluster in proportion to its server
// count — the natural deployment unit, since battery containers are
// installed per data center floor. Capacities and rates are per server;
// the paper's servers peak at 250 W, so 150 W of discharge rides through
// most of a cluster's routable draw.
func fleetBatteries(f *cluster.Fleet, kwhPerServer, chargeWPerServer, dischargeWPerServer, rte float64) []storage.Battery {
	out := make([]storage.Battery, len(f.Clusters))
	for i, cl := range f.Clusters {
		n := float64(cl.Servers)
		out[i] = storage.Battery{
			CapacityKWh:         kwhPerServer * n,
			MaxChargeKW:         chargeWPerServer * n / 1000,
			MaxDischargeKW:      dischargeWPerServer * n / 1000,
			RoundTripEfficiency: rte,
		}
	}
	return out
}

// clusterPrices resolves each cluster's hourly real-time series (fleet
// order), the history the percentile dispatch policy derives its
// thresholds from.
func clusterPrices(env *Env) ([]*timeseries.Series, error) {
	sys := env.System
	prices := make([]*timeseries.Series, len(sys.Fleet.Clusters))
	for c, cl := range sys.Fleet.Clusters {
		s, err := sys.Market.RT(cl.HubID)
		if err != nil {
			return nil, err
		}
		prices[c] = s
	}
	return prices, nil
}

// ExtStorageArbitrage compares {no battery, battery} × {Akamai-like
// baseline, price-aware routing} on the 39-month market: the storage lever
// of Urgaonkar et al. composed with the paper's geographic lever. Each
// cluster gets 1 kWh / 150 W / 150 W per server at 85% round-trip
// efficiency, dispatched against its own hub's p20/p80 price quantiles;
// the battery-plus-router run also feeds the charge state back into the
// routing signal (a charged site's decision price is capped at its
// discharge threshold).
func ExtStorageArbitrage(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System
	prices, err := clusterPrices(env)
	if err != nil {
		return nil, err
	}
	dispatch, err := storage.NewPercentile(prices, 0.20, 0.80)
	if err != nil {
		return nil, err
	}
	batteries := fleetBatteries(sys.Fleet, 1.0, 150, 150, 0.85)

	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		return nil, err
	}
	type config struct {
		label   string
		price   bool // price optimizer instead of the Akamai-like baseline
		battery bool
	}
	configs := []config{
		{"Akamai-like baseline", false, false},
		{"Baseline + battery", false, true},
		{"Price router (1500 km)", true, false},
		{"Price router + battery (storage-aware)", true, true},
	}
	results := make([]*sim.Result, len(configs))
	tasks := make([]func() error, len(configs))
	for i, cfg := range configs {
		tasks[i] = func() error {
			sc := base
			if cfg.price {
				opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
				if err != nil {
					return err
				}
				sc.Policy = opt
			} else {
				sc.Policy = routing.NewBaseline(sys.Fleet)
			}
			if cfg.battery {
				sc.Storage = &storage.Config{Batteries: batteries, Policy: dispatch, RoutingAware: cfg.price}
			}
			var err error
			results[i], err = sim.Run(sc)
			return err
		}
	}
	if err := runTasks(tasks...); err != nil {
		return nil, err
	}

	ref := results[0]
	t := report.NewTable("Battery arbitrage on the 39-month market (0% idle, 1.1 PUE; p20/p80 dispatch)",
		"Configuration", "Energy bill", "Normalized", "Bought (GWh)", "Served (GWh)")
	for i, cfg := range configs {
		r := results[i]
		t.Add(cfg.label, r.EnergyCost.String(), fmt.Sprintf("%.4f", r.NormalizedCost(ref)),
			fmt.Sprintf("%.2f", r.StorageBoughtKWh/1e6), fmt.Sprintf("%.2f", r.StorageServedKWh/1e6))
	}
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}
	batterySaves := results[1].TotalCost < results[0].TotalCost && results[3].TotalCost < results[2].TotalCost
	if batterySaves {
		fmt.Fprintf(&b, "\nThe battery cuts the bill under both routers (%.2f%% alone, %.2f%% on top of\nrouting): storage arbitrage composes with the geographic lever.\n",
			100*(1-results[1].NormalizedCost(results[0])),
			100*(1-float64(results[3].TotalCost)/float64(results[2].TotalCost)))
	} else {
		b.WriteString("\nNOTE: the battery did not pay for its round-trip losses under this seed.\n")
	}
	return render("ext-storage", "Battery arbitrage", &b), nil
}

// ExtPeakShaving puts every cluster on a demand-charge tariff
// ($12/kW-month on the monthly peak grid draw, billed alongside energy)
// and contrasts the two dispatch disciplines. Price-threshold arbitrage
// charges flat out in cheap hours, and the demand meter bills exactly that
// draw — the energy bill falls but the demand charge balloons. The
// peak-shaving dispatch instead defends a grid-draw target derived from
// the no-battery run's observed peaks (discharge above 90%, refill only
// below 70%), shaving the component the router cannot touch (Xu & Li).
func ExtPeakShaving(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System
	prices, err := clusterPrices(env)
	if err != nil {
		return nil, err
	}
	arbitrage, err := storage.NewPercentile(prices, 0.20, 0.80)
	if err != nil {
		return nil, err
	}
	const ratePerKWMonth = 12.0
	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		return nil, err
	}
	base.DemandChargePerKW = ratePerKWMonth
	// The no-battery reference first: its observed peaks parameterize the
	// shaver's per-cluster target (90%) and refill floor (70%).
	ref := base
	ref.Policy = routing.NewBaseline(sys.Fleet)
	noBattery, err := sim.Run(ref)
	if err != nil {
		return nil, err
	}
	targets := make([]float64, len(noBattery.PeakGridKW))
	floors := make([]float64, len(noBattery.PeakGridKW))
	for c, kw := range noBattery.PeakGridKW {
		targets[c] = 0.9 * kw
		floors[c] = 0.7 * kw
	}
	shaver, err := storage.NewPeakShaver(targets, floors)
	if err != nil {
		return nil, err
	}

	type config struct {
		label    string
		kwh      float64 // battery size per server
		dispatch storage.Policy
	}
	configs := []config{
		{"Arbitrage p20/p80, 1.0 kWh/server", 1.0, arbitrage},
		{"Peak shaver, 0.5 kWh/server", 0.5, shaver},
		{"Peak shaver, 1.0 kWh/server", 1.0, shaver},
		{"Peak shaver, 2.0 kWh/server", 2.0, shaver},
	}
	results := make([]*sim.Result, len(configs))
	tasks := make([]func() error, len(configs))
	for i, cfg := range configs {
		tasks[i] = func() error {
			sc := base
			sc.Policy = routing.NewBaseline(sys.Fleet)
			sc.Storage = &storage.Config{
				Batteries: fleetBatteries(sys.Fleet, cfg.kwh, 150, 150, 0.85),
				Policy:    cfg.dispatch,
			}
			var err error
			results[i], err = sim.Run(sc)
			return err
		}
	}
	if err := runTasks(tasks...); err != nil {
		return nil, err
	}

	peakMW := func(r *sim.Result) float64 {
		var sum float64
		for _, kw := range r.PeakGridKW {
			sum += kw
		}
		return sum / 1000
	}
	t := report.NewTable(fmt.Sprintf("Demand-charge tariff, $%.0f/kW-month, Akamai-like routing, 39 months", ratePerKWMonth),
		"Dispatch", "Energy bill", "Demand charge", "Total", "Σ peak (MW)", "Normalized")
	t.Add("No battery", noBattery.EnergyCost.String(), noBattery.DemandCharge.String(),
		noBattery.TotalCost.String(), fmt.Sprintf("%.2f", peakMW(noBattery)), "1.0000")
	for i, cfg := range configs {
		r := results[i]
		t.Add(cfg.label, r.EnergyCost.String(), r.DemandCharge.String(),
			r.TotalCost.String(), fmt.Sprintf("%.2f", peakMW(r)), fmt.Sprintf("%.4f", r.NormalizedCost(noBattery)))
	}
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\nWithout a battery the demand charge is %s — %s of the total bill.\n",
		noBattery.DemandCharge, pct(float64(noBattery.DemandCharge)/float64(noBattery.TotalCost)))
	if arb := results[0]; arb.DemandCharge > noBattery.DemandCharge {
		fmt.Fprintf(&b, "Arbitrage dispatch cuts the energy bill %s but raises the demand charge %s:\nthe meter bills its own charging draw.\n",
			pct(1-float64(arb.EnergyCost)/float64(noBattery.EnergyCost)),
			pct(float64(arb.DemandCharge)/float64(noBattery.DemandCharge)-1))
	}
	largest := results[len(results)-1]
	if largest.DemandCharge < noBattery.DemandCharge && largest.TotalCost < noBattery.TotalCost {
		fmt.Fprintf(&b, "The largest peak-shaver battery cuts the demand charge by %s and the total\nbill by %s: stored energy attacks the component the router cannot.\n",
			pct(1-float64(largest.DemandCharge)/float64(noBattery.DemandCharge)),
			pct(1-float64(largest.TotalCost)/float64(noBattery.TotalCost)))
	} else {
		b.WriteString("NOTE: peak shaving did not reduce the demand charge for this seed.\n")
	}
	return render("ext-peakshave", "Demand-charge peak shaving", &b), nil
}
