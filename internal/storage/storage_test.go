package storage

import (
	"math"
	"testing"
	"time"

	"powerroute/internal/timeseries"
)

func testBattery() Battery {
	return Battery{
		CapacityKWh:         100,
		MaxChargeKW:         40,
		MaxDischargeKW:      50,
		RoundTripEfficiency: 0.81,
	}
}

func TestBatteryValidate(t *testing.T) {
	if err := (Battery{}).Validate(); err != nil {
		t.Errorf("zero battery should validate: %v", err)
	}
	if err := testBattery().Validate(); err != nil {
		t.Errorf("test battery should validate: %v", err)
	}
	bad := []Battery{
		{CapacityKWh: -1},
		{MaxChargeKW: -1},
		{MaxDischargeKW: -1},
		{RoundTripEfficiency: 1.5},
		{RoundTripEfficiency: -0.1},
		{InitialSoC: 2},
		// Non-finite parameters defeat the Charge/Discharge clamps (every
		// NaN comparison is false), so Validate must reject them.
		{CapacityKWh: math.NaN()},
		{CapacityKWh: math.Inf(1)},
		{MaxChargeKW: math.NaN()},
		{RoundTripEfficiency: math.NaN()},
		{InitialSoC: math.NaN()},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad battery %d accepted", i)
		}
	}
}

func TestZeroBatteryNoOps(t *testing.T) {
	s := NewState(Battery{})
	if got := s.Charge(100, 1); got != 0 {
		t.Errorf("zero battery charged %v kWh", got)
	}
	if got := s.Discharge(100, 1); got != 0 {
		t.Errorf("zero battery discharged %v kWh", got)
	}
	if s.SoCKWh() != 0 {
		t.Errorf("zero battery SoC = %v", s.SoCKWh())
	}
}

func TestChargeRespectsRateAndCapacity(t *testing.T) {
	s := NewState(testBattery()) // η_oneway = 0.9
	// Request far above the rate limit: grid draw caps at 40 kW for 1 h.
	if got := s.Charge(1000, 1); got != 40 {
		t.Fatalf("charge drew %v kWh, want 40", got)
	}
	if want := 36.0; math.Abs(s.SoCKWh()-want) > 1e-9 {
		t.Errorf("SoC = %v kWh, want %v (40 kWh × 0.9)", s.SoCKWh(), want)
	}
	// Fill to the brim: headroom is (100−36)/0.9 ≈ 71.1 kWh of grid energy,
	// and no request may push the SoC past capacity.
	drawn := s.Charge(40, 10)
	if math.Abs(s.SoCKWh()-100) > 1e-9 {
		t.Errorf("SoC = %v kWh after fill, want 100", s.SoCKWh())
	}
	if math.Abs(drawn-64.0/0.9) > 1e-9 {
		t.Errorf("fill drew %v kWh, want %v", drawn, 64.0/0.9)
	}
	if got := s.Charge(40, 1); got != 0 {
		t.Errorf("full battery accepted %v kWh", got)
	}
	if got := s.BoughtKWh(); math.Abs(got-(40+64.0/0.9)) > 1e-9 {
		t.Errorf("BoughtKWh = %v", got)
	}
}

func TestDischargeRespectsRateAndStock(t *testing.T) {
	b := testBattery()
	b.InitialSoC = 1
	s := NewState(b) // 100 kWh stored, η_oneway = 0.9
	// Rate-limited: 50 kW for 1 h serves 50 kWh.
	if got := s.Discharge(1000, 1); got != 50 {
		t.Fatalf("discharge served %v kWh, want 50", got)
	}
	if want := 100 - 50/0.9; math.Abs(s.SoCKWh()-want) > 1e-9 {
		t.Errorf("SoC = %v kWh, want %v", s.SoCKWh(), want)
	}
	// Drain the rest: only SoC·η is deliverable.
	rest := s.Discharge(50, 10)
	if want := (100 - 50/0.9) * 0.9; math.Abs(rest-want) > 1e-9 {
		t.Errorf("drain served %v kWh, want %v", rest, want)
	}
	if s.SoCKWh() != 0 {
		t.Errorf("SoC = %v after drain, want 0", s.SoCKWh())
	}
	if got := s.Discharge(50, 1); got != 0 {
		t.Errorf("empty battery served %v kWh", got)
	}
}

// TestRoundTripEfficiency checks energy out = η × energy in across a full
// buy-store-serve cycle.
func TestRoundTripEfficiency(t *testing.T) {
	s := NewState(testBattery())
	in := s.Charge(40, 2) // 80 kWh from the grid
	var out float64
	for i := 0; i < 10; i++ {
		out += s.Discharge(50, 1)
	}
	if want := in * 0.81; math.Abs(out-want) > 1e-9 {
		t.Errorf("round trip returned %v of %v kWh, want %v", out, in, want)
	}
}

func TestThresholdPolicy(t *testing.T) {
	if _, err := NewThreshold(50, 50); err == nil {
		t.Error("inverted thresholds accepted")
	}
	if _, err := NewThreshold(math.NaN(), math.NaN()); err == nil {
		t.Error("NaN thresholds accepted")
	}
	pol, err := NewThreshold(20, 60)
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(testBattery())
	if got := pol.Action(0, 10, 100, s); got != 40 {
		t.Errorf("cheap hour action = %v, want +40 (charge)", got)
	}
	if got := pol.Action(0, 40, 100, s); got != 0 {
		t.Errorf("dead-band action = %v, want 0", got)
	}
	if got := pol.Action(0, 80, 100, s); got != -50 {
		t.Errorf("expensive hour action = %v, want -50 (discharge)", got)
	}
	// Price cap applies only while charge is held.
	if cap := pol.PriceCap(0, s); !math.IsInf(cap, 1) {
		t.Errorf("empty battery price cap = %v, want +Inf", cap)
	}
	s.Charge(40, 1)
	if cap := pol.PriceCap(0, s); cap != 60 {
		t.Errorf("charged battery price cap = %v, want 60", cap)
	}
	// A battery that cannot discharge cannot cap the routing signal, no
	// matter how much charge it holds.
	stuck := NewState(Battery{CapacityKWh: 100, InitialSoC: 1})
	if cap := pol.PriceCap(0, stuck); !math.IsInf(cap, 1) {
		t.Errorf("non-dischargeable battery price cap = %v, want +Inf", cap)
	}
}

func TestPercentilePolicy(t *testing.T) {
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	cheap := timeseries.FromValues(start, time.Hour, []float64{10, 20, 30, 40, 50})
	dear := timeseries.FromValues(start, time.Hour, []float64{110, 120, 130, 140, 150})
	pol, err := NewPercentile([]*timeseries.Series{cheap, dear}, 0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	th := pol.Thresholds()
	if th[0].ChargeBelow != 20 || th[0].DischargeAbove != 40 {
		t.Errorf("cheap-hub thresholds = %+v, want 20/40", th[0])
	}
	if th[1].ChargeBelow != 120 || th[1].DischargeAbove != 140 {
		t.Errorf("dear-hub thresholds = %+v, want 120/140", th[1])
	}
	// The same $35 price charges at the dear hub and idles at the cheap one.
	s := NewState(testBattery())
	if got := pol.Action(0, 35, 100, s); got != 0 {
		t.Errorf("cheap hub at $35: action %v, want 0", got)
	}
	if got := pol.Action(1, 35, 100, s); got != 40 {
		t.Errorf("dear hub at $35: action %v, want +40", got)
	}

	flat := timeseries.FromValues(start, time.Hour, []float64{25, 25, 25, 25})
	if _, err := NewPercentile([]*timeseries.Series{flat}, 0.25, 0.75); err == nil {
		t.Error("flat price history accepted (no dead-band)")
	}
	if _, err := NewPercentile([]*timeseries.Series{cheap}, 0.75, 0.25); err == nil {
		t.Error("inverted quantiles accepted")
	}
	if _, err := NewPercentile(nil, 0.25, 0.75); err == nil {
		t.Error("empty series list accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	pol, err := NewThreshold(20, 60)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Uniform(testBattery(), 3, pol)
	if err := cfg.Validate(3); err != nil {
		t.Errorf("uniform config rejected: %v", err)
	}
	if err := cfg.Validate(4); err == nil {
		t.Error("cluster count mismatch accepted")
	}
	if err := (&Config{Batteries: make([]Battery, 2)}).Validate(2); err == nil {
		t.Error("missing policy accepted")
	}
	bad := Uniform(Battery{CapacityKWh: -1}, 2, pol)
	if err := bad.Validate(2); err == nil {
		t.Error("invalid battery accepted")
	}
	// Per-cluster policies must match the fleet dimension, or dispatch
	// would panic mid-simulation.
	shaver, err := NewPeakShaver([]float64{100, 200}, []float64{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := Uniform(testBattery(), 3, shaver).Validate(3); err == nil {
		t.Error("undersized peak shaver accepted")
	}
	if err := Uniform(testBattery(), 2, shaver).Validate(2); err != nil {
		t.Errorf("correctly sized peak shaver rejected: %v", err)
	}
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	perc, err := NewPercentile([]*timeseries.Series{
		timeseries.FromValues(start, time.Hour, []float64{10, 20, 30, 40}),
	}, 0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if err := Uniform(testBattery(), 2, perc).Validate(2); err == nil {
		t.Error("undersized percentile policy accepted")
	}
}

func TestPeakShaver(t *testing.T) {
	if _, err := NewPeakShaver([]float64{100}, []float64{100}); err == nil {
		t.Error("floor >= target accepted")
	}
	if _, err := NewPeakShaver([]float64{100, 200}, []float64{50}); err == nil {
		t.Error("length mismatch accepted")
	}
	pol, err := NewPeakShaver([]float64{200, 400}, []float64{120, 300})
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(testBattery())
	// Above target: discharge exactly the excess (price is irrelevant).
	if got := pol.Action(0, 999, 250, s); got != -50 {
		t.Errorf("over-target action = %v, want -50", got)
	}
	// Below floor: charge with the headroom under the floor.
	if got := pol.Action(0, 1, 90, s); got != 30 {
		t.Errorf("under-floor action = %v, want +30", got)
	}
	// Between floor and target: idle, holding charge for the next peak.
	if got := pol.Action(0, 1, 150, s); got != 0 {
		t.Errorf("mid-band action = %v, want 0", got)
	}
	// Per-cluster limits: cluster 1 has its own band.
	if got := pol.Action(1, 1, 450, s); got != -50 {
		t.Errorf("cluster 1 over-target action = %v, want -50", got)
	}
}

// TestStateSnapshotRoundTrip: Snapshot/RestoreSnapshot reproduce the
// charge state exactly and refuse physically impossible snapshots.
func TestStateSnapshotRoundTrip(t *testing.T) {
	b := Battery{CapacityKWh: 100, MaxChargeKW: 40, MaxDischargeKW: 30, RoundTripEfficiency: 0.81}
	s := NewState(b)
	s.Charge(40, 1)
	s.Discharge(10, 1)
	snap := s.Snapshot()

	restored := NewState(b)
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if restored.SoCKWh() != s.SoCKWh() || restored.BoughtKWh() != s.BoughtKWh() || restored.ServedKWh() != s.ServedKWh() {
		t.Fatalf("restored %+v, want %+v", restored.Snapshot(), snap)
	}
	// Continuation behaves identically: same charge acceptance.
	if g, w := restored.Charge(40, 1), s.Charge(40, 1); g != w {
		t.Fatalf("restored battery accepted %v kWh, original %v", g, w)
	}

	bad := []Snapshot{
		{SoCKWh: 101},
		{SoCKWh: -1},
		{SoCKWh: math.NaN()},
		{BoughtKWh: math.Inf(1)},
		{ServedKWh: -0.5},
	}
	for i, v := range bad {
		target := NewState(b)
		if err := target.RestoreSnapshot(v); err == nil {
			t.Errorf("case %d: impossible snapshot %+v accepted", i, v)
		}
	}
}
