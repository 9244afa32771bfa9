package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"powerroute/internal/units"
)

func TestValidate(t *testing.T) {
	if _, err := New(250, 0.6, 1.3); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []Model{
		{PeakPower: 0, IdleFrac: 0.5, PUE: 1.5},
		{PeakPower: -10, IdleFrac: 0.5, PUE: 1.5},
		{PeakPower: 250, IdleFrac: -0.1, PUE: 1.5},
		{PeakPower: 250, IdleFrac: 1.1, PUE: 1.5},
		{PeakPower: 250, IdleFrac: 0.5, PUE: 0.9},
		{PeakPower: 250, IdleFrac: 0.5, PUE: 1.5, Exponent: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model %+v accepted", i, m)
		}
	}
}

func TestFixedAndVariablePower(t *testing.T) {
	// 65% idle, PUE 1.3, 250 W peak: F = 162.5 + 75 = 237.5 W per server.
	m := CuttingEdge
	if got := m.FixedPower(1).Watts(); math.Abs(got-237.5) > 1e-9 {
		t.Errorf("FixedPower(1) = %v, want 237.5", got)
	}
	if got := m.FixedPower(100).Watts(); math.Abs(got-23750) > 1e-6 {
		t.Errorf("FixedPower(100) = %v", got)
	}
	// V(0) = 0; V(1) = span·(2−1) = span.
	if got := m.VariablePower(0, 10).Watts(); got != 0 {
		t.Errorf("VariablePower(0) = %v", got)
	}
	span := 250.0 * 0.35
	if got := m.VariablePower(1, 1).Watts(); math.Abs(got-span) > 1e-9 {
		t.Errorf("VariablePower(1) = %v, want %v", got, span)
	}
	// The paper's Google-study curve: V(u)/span = 2u − u^1.4.
	u := 0.3
	want := span * (2*u - math.Pow(u, 1.4))
	if got := m.VariablePower(u, 1).Watts(); math.Abs(got-want) > 1e-9 {
		t.Errorf("VariablePower(0.3) = %v, want %v", got, want)
	}
}

func TestClusterPowerMonotoneInUtilization(t *testing.T) {
	for _, m := range Fig15Models() {
		prev := -1.0
		for u := 0.0; u <= 1.0001; u += 0.05 {
			p := m.ClusterPower(u, 100).Watts()
			if p < prev {
				t.Fatalf("%v: power not monotone at u=%.2f", m, u)
			}
			prev = p
		}
	}
}

func TestClusterPowerClampsUtilization(t *testing.T) {
	m := OptimisticFuture
	if m.ClusterPower(-0.5, 10) != m.ClusterPower(0, 10) {
		t.Error("u<0 not clamped")
	}
	if m.ClusterPower(1.5, 10) != m.ClusterPower(1, 10) {
		t.Error("u>1 not clamped")
	}
}

func TestElasticity(t *testing.T) {
	// Fully proportional: idle cluster draws nothing.
	if e := FullyProportional.Elasticity(); e != 0 {
		t.Errorf("FullyProportional elasticity = %v, want 0", e)
	}
	// The paper: "Present state-of-the-art systems fall somewhere in the
	// middle, with idle power being around 60% of peak" — elasticity grows
	// with idle fraction and PUE.
	prev := -1.0
	for _, m := range Fig15Models() {
		e := m.Elasticity()
		if e < 0 || e >= 1 {
			t.Errorf("%v: elasticity %v outside [0,1)", m, e)
		}
		if e < prev {
			t.Errorf("%v: Fig 15 ordering violated (elasticity %v < previous %v)", m, e, prev)
		}
		prev = e
	}
	// Without power management, nearly inelastic: ~95% + overhead.
	if e := NoPowerManagement.Elasticity(); e < 0.9 {
		t.Errorf("NoPowerManagement elasticity = %v, want ≥ 0.9", e)
	}
}

func TestLinearExponentOption(t *testing.T) {
	// §5.1: "A linear model (r = 1) was also found to be reasonably
	// accurate". With r=1, V(u) = span·u.
	m := Model{PeakPower: 250, IdleFrac: 0.5, PUE: 1.0, Exponent: 1}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.VariablePower(0.4, 1).Watts(); math.Abs(got-125*0.4) > 1e-9 {
		t.Errorf("linear V(0.4) = %v, want 50", got)
	}
}

func TestEpsilonCorrection(t *testing.T) {
	m := OptimisticFuture
	m.Epsilon = 5 // +5 W per server
	base := OptimisticFuture.ClusterPower(0.5, 10).Watts()
	if got := m.ClusterPower(0.5, 10).Watts(); math.Abs(got-(base+50)) > 1e-9 {
		t.Errorf("epsilon not applied: %v vs %v", got, base)
	}
}

func TestEnergyOverTime(t *testing.T) {
	m := FullyProportional
	// 1000 servers at full load for 1 hour: 1000·250 W·h = 250 kWh.
	e := m.Energy(1, 1000, 1)
	if math.Abs(e.KilowattHours()-250) > 1e-9 {
		t.Errorf("Energy = %v kWh, want 250", e.KilowattHours())
	}
}

func TestEnergyScalesWithServersProperty(t *testing.T) {
	m := CuttingEdge
	f := func(nSmall uint8, uRaw float64) bool {
		n := int(nSmall)%100 + 1
		u := math.Abs(math.Mod(uRaw, 1))
		p1 := m.ClusterPower(u, n).Watts()
		p2 := m.ClusterPower(u, 2*n).Watts()
		return math.Abs(p2-2*p1) < 1e-6*(1+p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVariablePowerBoundsProperty(t *testing.T) {
	// 2u − u^r stays within [0, 1] for u ∈ [0,1], r ≥ 1: V never exceeds
	// the idle-to-peak span.
	for _, m := range Fig15Models() {
		f := func(uRaw float64) bool {
			u := math.Abs(math.Mod(uRaw, 1))
			v := m.VariablePower(u, 1).Watts()
			span := float64(m.PeakPower) * (1 - m.IdleFrac)
			return v >= 0 && v <= span+1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestStringFormat(t *testing.T) {
	if s := CuttingEdge.String(); s != "(65% idle, 1.3 PUE)" {
		t.Errorf("String = %q", s)
	}
	if s := OptimisticFuture.String(); s != "(0% idle, 1.1 PUE)" {
		t.Errorf("String = %q", s)
	}
}

func TestFig15ModelCount(t *testing.T) {
	ms := Fig15Models()
	if len(ms) != 7 {
		t.Fatalf("Fig15Models = %d entries, want 7", len(ms))
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("%v invalid: %v", m, err)
		}
	}
}

// TestFig1Estimates reproduces Figure 1's table within loose bounds.
func TestFig1Estimates(t *testing.T) {
	want := map[string]struct{ lo, hi float64 }{ // annual $ at $60/MWh
		"eBay":      {2.5e6, 5.5e6}, // paper ~$3.7M
		"Akamai":    {7e6, 14e6},    // ~$10M
		"Rackspace": {8e6, 17e6},    // ~$12M
		"Microsoft": {30e6, 55e6},   // >$36M
		"Google":    {30e6, 50e6},   // >$38M
	}
	for _, f := range Fig1Fleets() {
		b, ok := want[f.Name]
		if !ok {
			t.Errorf("unexpected fleet %q", f.Name)
			continue
		}
		cost := f.AnnualCost(60).Dollars()
		if cost < b.lo || cost > b.hi {
			t.Errorf("%s: annual cost $%.1fM outside [%.1fM, %.1fM]",
				f.Name, cost/1e6, b.lo/1e6, b.hi/1e6)
		}
	}
	// Google's energy: paper says > 6.3e5 MWh/year.
	for _, f := range Fig1Fleets() {
		if f.Name == "Google" {
			if e := f.AnnualEnergy().MegawattHours(); e < 5.5e5 || e > 8e5 {
				t.Errorf("Google annual energy = %.2g MWh, want ≈ 6.3e5", e)
			}
		}
	}
}

func TestIdlePower(t *testing.T) {
	m := Model{PeakPower: 200, IdleFrac: 0.6, PUE: 1.0}
	if got := m.IdlePower().Watts(); got != 120 {
		t.Errorf("IdlePower = %v, want 120", got)
	}
}

// TestPowerCurveBitIdentity pins the power curve bit for bit: for every
// exponent, Evaluator.Power, Model.ClusterPower and a reference that
// evaluates u^r with math.Pow agree, and so do u^r itself and math.Pow,
// on the edge utilizations (signed zero, both sides of pow's 2^-600
// floor, one far below it, subnormal, 1−2^-53, 1, above 1, NaN) and on
// a million seeded random ones.
func TestPowerCurveBitIdentity(t *testing.T) {
	const n = 120
	reference := func(m Model, u float64) float64 {
		u = clamp01(u)
		span := float64(m.PeakPower) - float64(m.IdlePower())
		variable := units.Power(float64(n) * span * (2*u - math.Pow(u, m.exponent())))
		return float64(m.FixedPower(n) + variable + units.Power(float64(n)*float64(m.Epsilon)))
	}
	edges := []float64{
		math.Copysign(0, -1), 0, 0x1p-601, 0x1p-600, math.SmallestNonzeroFloat64,
		1e-300, 0.3, 1 - 0x1p-53, 1, 1.5, math.NaN(),
		// u^1.4 is subnormal here, and Exp(yf·Log(u))·u rounds to a
		// different value than math.Pow: the reason for the floor. The
		// power curve cannot show it (2u swamps u^r), so u^r is
		// compared on its own.
		0x1.8544d708e853ap-732,
	}
	for _, r := range []float64{0, 0.5, 0.7, 1, 1.4, 1.5, 2, 2.3} {
		m := CuttingEdge
		m.Exponent = r
		m.Epsilon = 3
		ev := m.Evaluator(n)
		p := newPow(m.exponent())
		check := func(u float64) {
			if got, want := math.Float64bits(p.at(u)), math.Float64bits(math.Pow(u, m.exponent())); got != want {
				t.Fatalf("r=%v u=%v: u^r bits %#x, math.Pow %#x", r, u, got, want)
			}
			want := math.Float64bits(reference(m, u))
			if got := math.Float64bits(float64(ev.Power(u))); got != want {
				t.Fatalf("r=%v u=%v: Evaluator.Power bits %#x, math.Pow reference %#x", r, u, got, want)
			}
			if got := math.Float64bits(float64(m.ClusterPower(u, n))); got != want {
				t.Fatalf("r=%v u=%v: Model.ClusterPower bits %#x, math.Pow reference %#x", r, u, got, want)
			}
		}
		for _, u := range edges {
			check(u)
		}
		rng := rand.New(rand.NewSource(int64(r * 10)))
		for i := 0; i < 1_000_000; i++ {
			check(rng.Float64())
		}
	}
}
