// peakshave demonstrates the energy-storage subsystem: site batteries
// arbitraging each hub's hourly prices, and peak-shaving dispatch cutting
// the demand-charge component of a commercial tariff — two levers that
// compose with the paper's geographic routing.
//
//	go run ./examples/peakshave
package main

import (
	"fmt"
	"log"
	"os"

	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/report"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
)

func main() {
	// A 6-month world keeps the example snappy; use the default 39 months
	// for the full experiment (powerroute ext-storage ext-peakshave).
	sys, err := core.NewSystem(core.Options{Seed: 42, MarketMonths: 6})
	if err != nil {
		log.Fatal(err)
	}

	// One battery per cluster, sized per server: 1 kWh of capacity and
	// 150 W each way, 85% round trip.
	batteries := make([]storage.Battery, len(sys.Fleet.Clusters))
	prices := make([]*timeseries.Series, len(sys.Fleet.Clusters))
	for c, cl := range sys.Fleet.Clusters {
		n := float64(cl.Servers)
		batteries[c] = storage.Battery{
			CapacityKWh:         1.0 * n,
			MaxChargeKW:         0.150 * n,
			MaxDischargeKW:      0.150 * n,
			RoundTripEfficiency: 0.85,
		}
		if prices[c], err = sys.Market.RT(cl.HubID); err != nil {
			log.Fatal(err)
		}
	}
	dispatch, err := storage.NewPercentile(prices, 0.20, 0.80)
	if err != nil {
		log.Fatal(err)
	}

	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		log.Fatal(err)
	}
	base.DemandChargePerKW = 12 // $/kW-month on each cluster's monthly peak
	run := func(cfg *storage.Config) *sim.Result {
		sc := base
		sc.Policy = routing.NewBaseline(sys.Fleet)
		sc.Storage = cfg
		res, err := sim.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	noBattery := run(nil)
	arbitrage := run(&storage.Config{Batteries: batteries, Policy: dispatch})

	// Peak-shaving dispatch defends 90% of the no-battery peaks and
	// refills only below 70%, so charging never mints a new monthly peak.
	targets := make([]float64, len(noBattery.PeakGridKW))
	floors := make([]float64, len(noBattery.PeakGridKW))
	for c, kw := range noBattery.PeakGridKW {
		targets[c] = 0.9 * kw
		floors[c] = 0.7 * kw
	}
	shaver, err := storage.NewPeakShaver(targets, floors)
	if err != nil {
		log.Fatal(err)
	}
	shaved := run(&storage.Config{Batteries: batteries, Policy: shaver})

	t := report.NewTable("Batteries under a demand-charge tariff ($12/kW-month, 6 months)",
		"Dispatch", "Energy bill", "Demand charge", "Total", "Served (MWh)")
	for _, row := range []struct {
		label string
		r     *sim.Result
	}{
		{"No battery", noBattery},
		{"Price arbitrage (p20/p80)", arbitrage},
		{"Peak shaver (90%/70%)", shaved},
	} {
		t.Add(row.label, row.r.EnergyCost.String(), row.r.DemandCharge.String(),
			row.r.TotalCost.String(), fmt.Sprintf("%.1f", row.r.StorageServedKWh/1000))
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nArbitrage vs no battery:   energy %+.1f%%, demand charge %+.1f%%\n",
		100*(float64(arbitrage.EnergyCost)/float64(noBattery.EnergyCost)-1),
		100*(float64(arbitrage.DemandCharge)/float64(noBattery.DemandCharge)-1))
	fmt.Printf("Peak shaver vs no battery: energy %+.1f%%, demand charge %+.1f%%\n",
		100*(float64(shaved.EnergyCost)/float64(noBattery.EnergyCost)-1),
		100*(float64(shaved.DemandCharge)/float64(noBattery.DemandCharge)-1))
	fmt.Println("\nThe arbitrage battery buys cheap hours but its charging draw is billed by")
	fmt.Println("the demand meter; the peak shaver gives up most energy savings to cut the")
	fmt.Println("peak-kW component instead. Pick the dispatch to match the tariff.")
}
