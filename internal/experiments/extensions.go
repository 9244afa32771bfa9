package experiments

import (
	"fmt"
	"strings"

	"powerroute/internal/carbon"
	"powerroute/internal/core"
	"powerroute/internal/demand"
	"powerroute/internal/energy"
	"powerroute/internal/report"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
)

func init() {
	registry = append(registry,
		Definition{"ext-carbon", "Extension (§8): carbon-aware vs price-aware routing", ExtCarbonAware},
		Definition{"ext-demand", "Extension (§7): selling flexibility (negawatts, demand response)", ExtDemandResponse},
		Definition{"ext-joint", "Extension (§8): joint price/performance optimization", ExtJointOptimization},
	)
}

// ExtJointOptimization implements §8's "Implementing Joint Optimization":
// replace the hard distance threshold with a weighted objective
// price + w·distance and sweep the exchange rate w, tracing the cost/
// performance frontier a traffic-engineering framework would expose.
func ExtJointOptimization(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System
	sc, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		return nil, err
	}
	weights := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.2}
	var base *sim.Result
	var ref *core.Outcome
	results := make([]*sim.Result, len(weights))
	tasks := []func() error{
		func() (err error) {
			_, base, err = sys.Baseline(core.LongRun39Months, energy.OptimisticFuture)
			return err
		},
		// Reference: the paper's threshold scheme at 1500 km.
		func() (err error) {
			ref, err = sys.Run(core.RunConfig{
				Horizon: core.LongRun39Months, Energy: energy.OptimisticFuture, DistanceThresholdKm: 1500,
			})
			return err
		},
	}
	for i, w := range weights {
		tasks = append(tasks, func() error {
			pol, err := routing.NewJointOptimizer(sys.Fleet, w)
			if err != nil {
				return err
			}
			run := sc
			run.Policy = pol
			results[i], err = sim.Run(run)
			return err
		})
	}
	if err := runTasks(tasks...); err != nil {
		return nil, err
	}
	t := report.NewTable("Joint optimization: price + w·distance, 39 months, (0% idle, 1.1 PUE)",
		"w ($/MWh per km)", "Normalized cost", "Mean distance (km)", "p99 distance (km)")
	prevCost := 0.0
	frontier := true
	for i, w := range weights {
		res := results[i]
		cost := res.NormalizedCost(base)
		if cost < prevCost-0.005 {
			frontier = false // cost should rise as distance is penalized more
		}
		prevCost = cost
		t.Add(fmt.Sprintf("%.3g", w), fmt.Sprintf("%.3f", cost),
			fmt.Sprintf("%.0f", res.MeanDistanceKm), fmt.Sprintf("%.0f", res.P99DistanceKm))
	}
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\nThreshold scheme at 1500 km for reference: cost %.3f at mean %.0f km.\n",
		ref.NormalizedCost, ref.Optimized.MeanDistanceKm)
	if frontier {
		b.WriteString("The weighted objective traces a smooth cost/performance frontier — the\nknob a joint traffic-engineering framework would expose (§8).\n")
	} else {
		b.WriteString("NOTE: frontier not monotone for this seed.\n")
	}
	return render("ext-joint", "Joint optimization frontier", &b), nil
}

// carbonScenario is ext-carbon's base scenario: the 39-month long run
// metered against each cluster's hourly carbon intensity, drawn from the
// world's own seed like every other synthetic series.
func carbonScenario(sys *core.System) (sim.Scenario, error) {
	intensity, err := carbon.FleetSeries(sys.Market.Config.Seed, sys.Fleet, sys.Market.Start, sys.Market.Hours)
	if err != nil {
		return sim.Scenario{}, err
	}
	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		return sim.Scenario{}, err
	}
	base.Carbon = intensity
	return base, nil
}

// ExtCarbonAware implements the §8 "Environmental Cost" sketch: route on a
// time-varying gCO₂/kWh signal instead of dollars and compare both ledgers.
func ExtCarbonAware(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System
	base, err := carbonScenario(sys)
	if err != nil {
		return nil, err
	}
	intensity := base.Carbon
	run := func(decision string) (*sim.Result, error) {
		sc := base
		opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
		if err != nil {
			return nil, err
		}
		sc.Policy = opt
		switch decision {
		case "baseline":
			sc.Policy = routing.NewBaseline(sys.Fleet)
		case "price":
			// default: optimizer over dollar prices
		case "carbon":
			sc.DecisionSeries = intensity
			// Carbon intensities differ by ~100s of g/kWh; a $5-scale
			// dead-band would be oversized. Use a 10 g/kWh dead-band.
			opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, 10)
			if err != nil {
				return nil, err
			}
			sc.Policy = opt
		}
		return sim.Run(sc)
	}
	var baseline, price, green *sim.Result
	err = runTasks(
		func() (err error) { baseline, err = run("baseline"); return err },
		func() (err error) { price, err = run("price"); return err },
		func() (err error) { green, err = run("carbon"); return err })
	if err != nil {
		return nil, err
	}
	t := report.NewTable("39-month routing signal comparison ((0% idle, 1.1 PUE), 1500 km, relax 95/5)",
		"Router", "Cost (normalized)", "Emissions (normalized)", "tCO2")
	norm := func(r *sim.Result) (string, string, string) {
		return fmt.Sprintf("%.3f", r.NormalizedCost(baseline)),
			fmt.Sprintf("%.3f", r.TotalCarbonKg/baseline.TotalCarbonKg),
			fmt.Sprintf("%.0f", r.TotalCarbonKg/1000)
	}
	c1, e1, t1 := norm(baseline)
	t.Add("Akamai-like baseline", c1, e1, t1)
	c2, e2, t2 := norm(price)
	t.Add("Price-aware ($/MWh)", c2, e2, t2)
	c3, e3, t3 := norm(green)
	t.Add("Carbon-aware (gCO2/kWh)", c3, e3, t3)
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}
	if green.TotalCarbonKg < price.TotalCarbonKg && green.TotalCarbonKg < baseline.TotalCarbonKg {
		b.WriteString("\nThe carbon-aware router cuts emissions below both the baseline and the\nprice router — at a higher dollar cost: the §8 trade-off.\n")
	} else {
		b.WriteString("\nNOTE: carbon-aware routing did not reduce emissions for this seed.\n")
	}
	return render("ext-carbon", "Carbon-aware routing", &b), nil
}

// ExtDemandResponse implements §7's participation mechanisms on top of the
// simulated world: negawatt bids into the day-ahead market and a triggered
// demand-response enrollment sized by the fleet's elastic power.
func ExtDemandResponse(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System

	// Shed capacity: the variable (routable) power of each cluster at its
	// mean utilization — what suspending servers and routing away frees.
	_, baseRes, err := sys.Baseline(core.LongRun39Months, energy.OptimisticFuture)
	if err != nil {
		return nil, err
	}
	em := energy.OptimisticFuture
	t := report.NewTable("Per-cluster flexibility and program yields (39 months)",
		"Cluster", "Hub", "Shed (MW)", "DR events", "DR revenue", "Negawatt hours", "Negawatt revenue")
	program := demand.Program{
		TriggerPrice:   250,
		MaxEventHours:  4,
		CooldownHours:  12,
		EnergyCredit:   100,
		CapacityCredit: 4000,
	}
	const months = 39
	type clusterYield struct {
		shedMW float64
		settle demand.Settlement
		nega   demand.NegawattResult
	}
	prices, err := sim.ClusterPrices(sys.Fleet, sys.Market)
	if err != nil {
		return nil, err
	}
	yields := make([]clusterYield, len(sys.Fleet.Clusters))
	err = forEach(len(sys.Fleet.Clusters), func(ci int) error {
		cl := sys.Fleet.Clusters[ci]
		u := baseRes.MeanUtilization[ci]
		shedMW := em.VariablePower(u, cl.Servers).Megawatts()
		events, err := program.Events(prices[ci])
		if err != nil {
			return err
		}
		settle, err := program.Settle(events, shedMW, months)
		if err != nil {
			return err
		}
		da, err := sys.Market.DA(cl.HubID)
		if err != nil {
			return err
		}
		bid := demand.NegawattBid{OfferPrice: 150, MW: shedMW}
		nega, err := bid.Evaluate(da)
		if err != nil {
			return err
		}
		yields[ci] = clusterYield{shedMW: shedMW, settle: settle, nega: nega}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var totalDR, totalNega float64
	for ci, cl := range sys.Fleet.Clusters {
		y := yields[ci]
		totalDR += y.settle.Total.Dollars()
		totalNega += y.nega.Revenue.Dollars()
		t.Add(cl.Code, cl.HubID, fmt.Sprintf("%.1f", y.shedMW),
			fmt.Sprintf("%d", y.settle.Events), y.settle.Total.String(),
			fmt.Sprintf("%d", y.nega.HoursCleared), y.nega.Revenue.String())
	}
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\nTotal DR settlement: $%.2fM; total negawatt revenue: $%.2fM; the 39-month\nelectricity bill under the baseline was %v.\n",
		totalDR/1e6, totalNega/1e6, baseRes.TotalCost)
	// Aggregation note (§7: blocs as small as a few racks participate).
	var agg demand.Aggregator
	for _, cl := range sys.Fleet.Clusters {
		agg.Add(demand.Bloc{Name: cl.Code, KW: 50, Availability: 0.95})
	}
	fmt.Fprintf(&b, "An EnerNOC-style pool of one 50 kW rack-row per cluster is %.2f MW firm;\nclears a 0.4 MW bloc minimum: %v.\n",
		agg.FirmMW(), agg.MeetsMinimum(0.4))
	b.WriteString("\nSelling flexibility \"is valued even where wholesale markets do not exist\"\n(§7): revenue accrues even under fixed-price supply contracts.\n")
	return render("ext-demand", "Selling flexibility", &b), nil
}
