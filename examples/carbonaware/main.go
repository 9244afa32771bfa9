// carbonaware implements §8's "Environmental Cost" future-work sketch: a
// socially responsible operator routes on gCO₂/kWh instead of $/MWh. The
// example sweeps the latency budget and prints the dollar/carbon frontier.
//
//	go run ./examples/carbonaware
package main

import (
	"fmt"
	"log"
	"os"

	"powerroute/internal/carbon"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/report"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
)

func main() {
	sys, err := core.NewSystem(core.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	// Synthesize each cluster's hourly grid carbon intensity: coal-heavy
	// Midwest vs gas Texas vs hydro-leavened California, with demand-
	// coupled diurnal swings and wind regimes (§8: "the footprint varies
	// depending upon what generating assets are active").
	intensity, err := carbon.FleetSeries(42, sys.Fleet, sys.Market.Start, sys.Market.Hours)
	if err != nil {
		log.Fatal(err)
	}

	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		log.Fatal(err)
	}
	base.Carbon = intensity
	baseline := base
	baseline.Policy = routing.NewBaseline(sys.Fleet)
	baseRes, err := sim.Run(baseline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Baseline over 39 months: %v and %.0f tCO2\n\n",
		baseRes.TotalCost, baseRes.TotalCarbonKg/1000)

	t := report.NewTable("The dollar/carbon frontier by routing signal and latency budget",
		"Signal", "Threshold", "Cost vs baseline", "CO2 vs baseline")
	for _, km := range []float64{1000, 1500, 2500} {
		for _, signal := range []string{"price", "carbon"} {
			sc := base
			deadband := routing.DefaultPriceThreshold
			if signal == "carbon" {
				// Intensities span hundreds of g/kWh; use a 10 g dead-band.
				deadband = 10
				sc.DecisionSeries = intensity
			}
			opt, err := routing.NewPriceOptimizer(sys.Fleet, km, deadband)
			if err != nil {
				log.Fatal(err)
			}
			sc.Policy = opt
			res, err := sim.Run(sc)
			if err != nil {
				log.Fatal(err)
			}
			t.Add(signal, fmt.Sprintf("%.0f km", km),
				fmt.Sprintf("%+.1f%%", 100*(res.NormalizedCost(baseRes)-1)),
				fmt.Sprintf("%+.1f%%", 100*(res.TotalCarbonKg/baseRes.TotalCarbonKg-1)))
		}
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nUnlike price differentials — which \"reduce cost but not energy\" — routing")
	fmt.Println("toward clean regions reduces emissions directly; the two signals pull in")
	fmt.Println("different directions, and an operator picks a point on the frontier (§8).")
}
