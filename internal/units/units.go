// Package units provides typed physical and monetary quantities used
// throughout the simulator: electrical power and energy, wholesale
// electricity prices, money, and geographic distance.
//
// The types are thin wrappers over float64. They exist to make interfaces
// self-documenting and to prevent unit confusion (for example multiplying a
// price in $/MWh by an energy in Wh without converting). Arithmetic that
// crosses units goes through named methods such as Energy.Cost.
package units

import "fmt"

// Power is an electrical power draw in watts.
type Power float64

// Common power scales.
const (
	Watt     Power = 1
	Kilowatt Power = 1e3
	Megawatt Power = 1e6
)

// Watts returns p as a plain float64 number of watts.
func (p Power) Watts() float64 { return float64(p) }

// Kilowatts returns p in kW.
func (p Power) Kilowatts() float64 { return float64(p) / 1e3 }

// Megawatts returns p in MW.
func (p Power) Megawatts() float64 { return float64(p) / 1e6 }

// OverHours returns the energy consumed by drawing p for the given number
// of hours.
func (p Power) OverHours(hours float64) Energy {
	return Energy(float64(p) * hours)
}

// String formats the power with an adaptive SI prefix.
func (p Power) String() string {
	switch {
	case p >= Megawatt || p <= -Megawatt:
		return fmt.Sprintf("%.3f MW", p.Megawatts())
	case p >= Kilowatt || p <= -Kilowatt:
		return fmt.Sprintf("%.3f kW", p.Kilowatts())
	default:
		return fmt.Sprintf("%.1f W", p.Watts())
	}
}

// Energy is an amount of electrical energy in watt-hours.
type Energy float64

// Common energy scales.
const (
	WattHour     Energy = 1
	KilowattHour Energy = 1e3
	MegawattHour Energy = 1e6
)

// WattHours returns e as a plain float64 number of watt-hours.
func (e Energy) WattHours() float64 { return float64(e) }

// KilowattHours returns e in kWh.
func (e Energy) KilowattHours() float64 { return float64(e) / 1e3 }

// MegawattHours returns e in MWh.
func (e Energy) MegawattHours() float64 { return float64(e) / 1e6 }

// Cost returns the dollar cost of buying e at price p.
func (e Energy) Cost(p Price) Money {
	return Money(e.MegawattHours() * float64(p))
}

// String formats the energy with an adaptive SI prefix.
func (e Energy) String() string {
	switch {
	case e >= MegawattHour || e <= -MegawattHour:
		return fmt.Sprintf("%.3f MWh", e.MegawattHours())
	case e >= KilowattHour || e <= -KilowattHour:
		return fmt.Sprintf("%.3f kWh", e.KilowattHours())
	default:
		return fmt.Sprintf("%.1f Wh", e.WattHours())
	}
}

// Price is a wholesale electricity price in dollars per megawatt-hour,
// the unit used by US RTO locational marginal prices. Negative prices are
// legal: they occur for brief periods in real markets (paper §2.2).
type Price float64

// String formats the price as dollars per MWh.
func (p Price) String() string { return fmt.Sprintf("$%.2f/MWh", float64(p)) }

// Money is an amount of US dollars.
type Money float64

// Dollars returns m as a plain float64 number of dollars.
func (m Money) Dollars() float64 { return float64(m) }

// String formats the amount with thousands grouping for readability.
func (m Money) String() string {
	switch {
	case m >= 1e9 || m <= -1e9:
		return fmt.Sprintf("$%.2fB", float64(m)/1e9)
	case m >= 1e6 || m <= -1e6:
		return fmt.Sprintf("$%.2fM", float64(m)/1e6)
	case m >= 1e3 || m <= -1e3:
		return fmt.Sprintf("$%.1fK", float64(m)/1e3)
	default:
		return fmt.Sprintf("$%.2f", float64(m))
	}
}

// Distance is a geographic distance in kilometers.
type Distance float64

// Km returns d as a plain float64 number of kilometers.
func (d Distance) Km() float64 { return float64(d) }

// String formats the distance in kilometers.
func (d Distance) String() string { return fmt.Sprintf("%.0f km", float64(d)) }

// HitRate is a request arrival rate in hits per second, the load unit used
// in the Akamai trace (paper §4).
type HitRate float64

// String formats the rate with an adaptive scale.
func (r HitRate) String() string {
	switch {
	case r >= 1e6 || r <= -1e6:
		return fmt.Sprintf("%.2fM hits/s", float64(r)/1e6)
	case r >= 1e3 || r <= -1e3:
		return fmt.Sprintf("%.1fK hits/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.1f hits/s", float64(r))
	}
}
