// Package energy implements the cluster power model of §5.1, adapted from
// Google's empirical data center study (Fan, Weber & Barroso 2007):
//
//	P_cluster(u) = F(n) + V(u, n) + ε
//	F(n) = n · (P_idle + (PUE − 1) · P_peak)
//	V(u, n) = n · (P_peak − P_idle) · (2u − u^r)
//
// where u ∈ [0,1] is average CPU utilization, n is the number of servers,
// r = 1.4 empirically (a linear model r = 1 is also reasonably accurate),
// and the PUE term — added by the paper — accounts for cooling and other
// facility overhead proportional to peak power.
//
// The critical quantity for price-aware routing is the energy elasticity
// P_cluster(0)/P_cluster(1): the fraction of power that cannot be routed
// away by moving load. The package ships the named parameter sets the
// paper simulates (Fig 15).
package energy

import (
	"errors"
	"fmt"
	"math"

	"powerroute/internal/units"
)

// DefaultExponent is the empirically derived exponent r from the Google
// study; see §5.1.
const DefaultExponent = 1.4

// Model holds per-server power characteristics plus facility overhead.
// The zero value is not useful; use New or a preset.
type Model struct {
	PeakPower units.Power // P_peak: average per-server peak draw
	IdleFrac  float64     // P_idle / P_peak ∈ [0,1]
	PUE       float64     // power usage effectiveness ≥ 1
	Exponent  float64     // r in V(u,n); DefaultExponent if 0
	Epsilon   units.Power // empirical correction constant per server (ε)
}

// New validates and constructs a Model.
func New(peak units.Power, idleFrac, pue float64) (Model, error) {
	m := Model{PeakPower: peak, IdleFrac: idleFrac, PUE: pue, Exponent: DefaultExponent}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.PeakPower <= 0 {
		return errors.New("energy: peak power must be positive")
	}
	if m.IdleFrac < 0 || m.IdleFrac > 1 {
		return fmt.Errorf("energy: idle fraction %v outside [0,1]", m.IdleFrac)
	}
	if m.PUE < 1 {
		return fmt.Errorf("energy: PUE %v < 1", m.PUE)
	}
	if m.Exponent < 0 {
		return fmt.Errorf("energy: negative exponent %v", m.Exponent)
	}
	return nil
}

// exponent returns r with the default applied.
func (m Model) exponent() float64 {
	if m.Exponent == 0 {
		return DefaultExponent
	}
	return m.Exponent
}

// IdlePower returns P_idle for one server.
func (m Model) IdlePower() units.Power {
	return units.Power(float64(m.PeakPower) * m.IdleFrac)
}

// FixedPower returns F(n): the load-independent draw of n servers,
// including the facility overhead (PUE − 1)·P_peak per server.
func (m Model) FixedPower(n int) units.Power {
	perServer := float64(m.IdlePower()) + (m.PUE-1)*float64(m.PeakPower)
	return units.Power(float64(n) * perServer)
}

// VariablePower returns V(u, n): the utilization-dependent draw of n
// servers at average utilization u (clamped to [0,1]).
func (m Model) VariablePower(u float64, n int) units.Power {
	u = clamp01(u)
	span := float64(m.PeakPower) - float64(m.IdlePower())
	return units.Power(float64(n) * span * (2*u - newPow(m.exponent()).at(u)))
}

// ClusterPower returns P_cluster(u) for n servers: fixed plus variable plus
// the correction constant.
func (m Model) ClusterPower(u float64, n int) units.Power {
	return m.FixedPower(n) + m.VariablePower(u, n) + units.Power(float64(n)*float64(m.Epsilon))
}

// Elasticity returns P_cluster(0)/P_cluster(1), the paper's critical ratio
// (§5.1: "the value P_cluster(0)/P_cluster(1) is critical in determining
// the savings that can be achieved"). 0 is fully elastic (ideal), 1 is
// fully inelastic.
func (m Model) Elasticity() float64 {
	p1 := m.ClusterPower(1, 1)
	if p1 == 0 {
		return 1
	}
	return float64(m.ClusterPower(0, 1)) / float64(p1)
}

// Energy returns the energy consumed by n servers held at utilization u
// for the given number of hours.
func (m Model) Energy(u float64, n int, hours float64) units.Energy {
	return m.ClusterPower(u, n).OverHours(hours)
}

// Evaluator is a Model bound to a fixed server count with every
// load-independent term folded into constants, for hot loops that evaluate
// the same cluster millions of times. Each coefficient is the exact float64
// an unfused ClusterPower(u, n) computes on its way to the answer —
// fixed = F(n), varCoeff = n·(P_peak − P_idle), eps = n·ε — and Power
// combines them in the same association order, so Evaluator results are
// bit-identical to the Model methods.
type Evaluator struct {
	fixed    float64 // F(n)
	varCoeff float64 // n · (P_peak − P_idle)
	eps      float64 // n · ε
	pow      pow     // u^r, exponent with the default applied
}

// Evaluator precomputes the per-cluster constants of ClusterPower for n
// servers.
func (m Model) Evaluator(n int) Evaluator {
	span := float64(m.PeakPower) - float64(m.IdlePower())
	return Evaluator{
		fixed:    float64(m.FixedPower(n)),
		varCoeff: float64(n) * span,
		eps:      float64(n) * float64(m.Epsilon),
		pow:      newPow(m.exponent()),
	}
}

// Power returns P_cluster(u), bit-identical to Model.ClusterPower.
func (ev Evaluator) Power(u float64) units.Power {
	u = clamp01(u)
	// The conversion rounds the variable term on its own, as the
	// units.Power that VariablePower returns does, so FMA targets cannot
	// fuse it into the sum.
	return units.Power((ev.fixed + float64(ev.varCoeff*(2*u-ev.pow.at(u)))) + ev.eps)
}

// Energy returns the energy consumed over the given number of hours,
// bit-identical to Model.Energy.
func (ev Evaluator) Energy(u float64, hours float64) units.Energy {
	return ev.Power(u).OverHours(hours)
}

// String summarizes the model the way the paper labels Fig 15's x-axis:
// "(idle%, PUE)".
func (m Model) String() string {
	return fmt.Sprintf("(%.0f%% idle, %.1f PUE)", m.IdleFrac*100, m.PUE)
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// pow evaluates u^r for one exponent r, bit-identical to math.Pow(u, r)
// for every u.
//
// math.Pow splits r into an integer part yi and a fraction yf in
// (−0.5, 0.5], then returns Ldexp(Exp(yf·Log(u))·x1, xe), where
// u = x1·2^xe is Frexp's split. When yi = 1 (r in (0.5, 1.5], r ≠ 1;
// the paper's 1.4 is one), at computes Exp(yf·Log(u))·u instead: the same
// Exp and Log calls without pow's special-case switch, Modf, Frexp and
// Ldexp. Scaling a product by a power of two does not change its
// rounding while the product stays normal, and u ≥ 2^-600 keeps
// Exp(yf·Log(u))·u at or above 2^-900, so both routes round to the same
// bits. At u = 0 and u = 1 it returns what math.Pow returns for r > 0.
type pow struct {
	r  float64
	yf float64 // math.Pow's fraction of r when its integer part is 1, else 0
}

func newPow(r float64) pow {
	yi, yf := math.Modf(r)
	if yf > 0.5 {
		yf--
		yi++
	}
	if yi != 1 {
		yf = 0
	}
	return pow{r: r, yf: yf}
}

// at returns u^r.
func (p pow) at(u float64) float64 {
	if p.yf != 0 {
		switch {
		case u >= 0x1p-600 && u < 1:
			// The conversion rounds the product on its own, so it cannot
			// fuse into the caller's 2u − u^r on FMA targets.
			return float64(math.Exp(p.yf*math.Log(u)) * u)
		case u == 0:
			return 0
		case u == 1:
			return 1
		}
		return math.Pow(u, p.r)
	}
	switch p.r {
	case 1:
		return u
	case 2:
		return u * u
	}
	return math.Pow(u, p.r)
}
