package energy

import "powerroute/internal/units"

// DefaultPeakPower is the average peak server power the paper measured on
// actual Akamai servers (§2.1): 250 W. Only the idle/peak ratio and PUE
// matter for percentage savings (§5.1), so all presets share it.
const DefaultPeakPower = 250 * units.Watt

// Named parameter sets from §6.1 ("Some energy parameters that we used")
// and Fig 15's x-axis.
var (
	// FullyProportional is the ideal: zero idle power and no facility
	// overhead (0% idle, 1.0 PUE).
	FullyProportional = Model{PeakPower: DefaultPeakPower, IdleFrac: 0, PUE: 1.0, Exponent: DefaultExponent}

	// OptimisticFuture is the paper's "optimistic future" setting
	// (0% idle, 1.1 PUE).
	OptimisticFuture = Model{PeakPower: DefaultPeakPower, IdleFrac: 0, PUE: 1.1, Exponent: DefaultExponent}

	// CuttingEdge approximates Google's published numbers ("cutting-
	// edge/google": ~60–65% idle, 1.3 PUE). Fig 15 uses (65%, 1.3).
	CuttingEdge = Model{PeakPower: DefaultPeakPower, IdleFrac: 0.65, PUE: 1.3, Exponent: DefaultExponent}

	// StateOfTheArt is the paper's "state-of-the-art" (65% idle, 1.7 PUE).
	StateOfTheArt = Model{PeakPower: DefaultPeakPower, IdleFrac: 0.65, PUE: 1.7, Exponent: DefaultExponent}

	// NoPowerManagement models an off-the-shelf server without power
	// management: ~95% of peak when idle, PUE 2.0 (§5.1, §6.1).
	NoPowerManagement = Model{PeakPower: DefaultPeakPower, IdleFrac: 0.95, PUE: 2.0, Exponent: DefaultExponent}
)

// Fig15Models returns the seven (idle, PUE) combinations on Fig 15's
// x-axis, in the paper's order.
func Fig15Models() []Model {
	mk := func(idle, pue float64) Model {
		return Model{PeakPower: DefaultPeakPower, IdleFrac: idle, PUE: pue, Exponent: DefaultExponent}
	}
	return []Model{
		mk(0, 1.0),
		mk(0, 1.1),
		mk(0.25, 1.3),
		mk(0.33, 1.3),
		mk(0.33, 1.7),
		mk(0.65, 1.3),
		mk(0.65, 2.0),
	}
}

// ServerFleet describes a company-scale deployment for the Fig 1 style
// back-of-the-envelope estimate.
type ServerFleet struct {
	Name        string
	Servers     int
	PeakPower   units.Power // per server
	IdleFrac    float64
	PUE         float64
	Utilization float64 // average CPU utilization (paper assumes ~30%)
}

// AnnualEnergy reproduces the paper's footnote-3 estimate:
//
//	E ≈ n·(P_idle + (P_peak−P_idle)·U + (PUE−1)·P_peak)·365·24
func (f ServerFleet) AnnualEnergy() units.Energy {
	idle := float64(f.PeakPower) * f.IdleFrac
	perServer := idle + (float64(f.PeakPower)-idle)*f.Utilization + (f.PUE-1)*float64(f.PeakPower)
	return units.Power(float64(f.Servers) * perServer).OverHours(365 * 24)
}

// AnnualCost prices the fleet's annual energy at the given wholesale rate
// (the paper uses $60/MWh).
func (f ServerFleet) AnnualCost(rate units.Price) units.Money {
	return f.AnnualEnergy().Cost(rate)
}

// Fig1Fleets returns the company estimates of Fig 1 with the assumptions
// documented in §2.1: 250 W peak servers at 30% utilization and PUE 2.0 for
// everyone except Google (140 W, PUE 1.3).
func Fig1Fleets() []ServerFleet {
	std := func(name string, servers int) ServerFleet {
		return ServerFleet{Name: name, Servers: servers, PeakPower: 250, IdleFrac: 0.70, PUE: 2.0, Utilization: 0.30}
	}
	google := ServerFleet{Name: "Google", Servers: 500_000, PeakPower: 140, IdleFrac: 0.70, PUE: 1.3, Utilization: 0.30}
	return []ServerFleet{
		std("eBay", 16_000),
		std("Akamai", 40_000),
		std("Rackspace", 50_000),
		std("Microsoft", 200_000),
		google,
	}
}
