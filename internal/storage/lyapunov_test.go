package storage

import (
	"math"
	"strings"
	"testing"
	"time"

	"powerroute/internal/timeseries"
)

var lyapunovStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func priceSeries(values ...float64) *timeseries.Series {
	return timeseries.FromValues(lyapunovStart, time.Hour, values)
}

func lyapunovBattery() Battery {
	return Battery{CapacityKWh: 100, MaxChargeKW: 10, MaxDischargeKW: 10, RoundTripEfficiency: 0.81}
}

func TestNewLyapunovValidation(t *testing.T) {
	good := []*timeseries.Series{priceSeries(10, 50, 90)}
	b := []Battery{lyapunovBattery()}
	cases := []struct {
		name    string
		prices  []*timeseries.Series
		batts   []Battery
		hours   float64
		v       float64
		wantErr string
	}{
		{"no series", nil, nil, 1, 0, "at least one"},
		{"mismatched", good, nil, 1, 0, "0 batteries"},
		{"bad step", good, b, 0, 0, "step length"},
		{"nan v", good, b, 1, math.NaN(), "must be finite"},
		{"flat prices", []*timeseries.Series{priceSeries(42, 42, 42)}, b, 1, 0, "no spread"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewLyapunov(tc.prices, tc.batts, tc.hours, tc.v); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewLyapunov error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	if _, err := NewLyapunov(good, b, 1, 0); err != nil {
		t.Fatalf("valid construction failed: %v", err)
	}
}

// TestLyapunovBangBang checks the controller's defining behavior: an empty
// battery charges at cheap prices, a full one discharges at expensive
// ones, and the indifference threshold between them falls as the state of
// charge rises.
func TestLyapunovBangBang(t *testing.T) {
	b := lyapunovBattery()
	l, err := NewLyapunov([]*timeseries.Series{priceSeries(10, 30, 50, 70, 90)}, []Battery{b}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := NewState(b)
	if act := l.Action(0, 10, 25, empty); act != b.MaxChargeKW {
		t.Errorf("empty battery at the floor price: action %v, want full charge %v", act, b.MaxChargeKW)
	}
	if act := l.Action(0, 90, 25, empty); act == -b.MaxDischargeKW {
		t.Error("an empty battery must never be the discharge choice at any SoC-consistent threshold")
	}

	full := NewState(b)
	full.socKWh = b.CapacityKWh
	if act := l.Action(0, 90, 25, full); act != -b.MaxDischargeKW {
		t.Errorf("full battery at the ceiling price: action %v, want full discharge %v", act, -b.MaxDischargeKW)
	}
	if act := l.Action(0, 10, 25, full); act == b.MaxChargeKW {
		t.Error("a full battery must not charge at any price above its indifference point scaled by η")
	}

	if lo, hi := l.perCluster[0].indifference(b.CapacityKWh), l.perCluster[0].indifference(0); lo >= hi {
		t.Errorf("indifference price must fall with SoC: full %v >= empty %v", lo, hi)
	}
}

// TestLyapunovVClamp: an absurdly large explicit V must be clamped to the
// per-cluster feasibility bound, i.e. behave exactly like the auto form.
func TestLyapunovVClamp(t *testing.T) {
	prices := []*timeseries.Series{priceSeries(10, 50, 90)}
	b := []Battery{lyapunovBattery()}
	auto, err := NewLyapunov(prices, b, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := NewLyapunov(prices, b, 1, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	for _, soc := range []float64{0, 25, 50, 100} {
		if got, want := huge.perCluster[0].indifference(soc), auto.perCluster[0].indifference(soc); got != want {
			t.Errorf("SoC %v: clamped V threshold %v, auto %v", soc, got, want)
		}
	}
	if auto.Name() != "lyapunov(V=auto)" {
		t.Errorf("auto name %q", auto.Name())
	}
	if huge.Name() != "lyapunov(V=1e+12)" {
		t.Errorf("explicit name %q", huge.Name())
	}
}

func TestLyapunovPriceCap(t *testing.T) {
	b := lyapunovBattery()
	l, err := NewLyapunov([]*timeseries.Series{priceSeries(10, 50, 90)}, []Battery{b}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(b)
	if cap := l.PriceCap(0, s); !math.IsInf(cap, 1) {
		t.Errorf("empty battery advertises cap %v, want +Inf", cap)
	}
	s.socKWh = 40
	cap := l.PriceCap(0, s)
	if math.IsInf(cap, 1) {
		t.Error("charged battery advertises no price cap")
	}
	eta := math.Sqrt(b.RoundTripEfficiency)
	if want := l.perCluster[0].indifference(40) / eta; cap != want {
		t.Errorf("cap %v, want indifference/η = %v", cap, want)
	}
	s.socKWh = 80
	if lower := l.PriceCap(0, s); lower >= cap {
		t.Errorf("a fuller battery must advertise a lower cap: %v >= %v", lower, cap)
	}
}

// TestLyapunovZeroCapacityIsInert: the zero-value battery produces only
// zero-magnitude actions and an infinite price cap, so a configured-but-
// empty installation cannot perturb a run (the sim-level byte-identity
// test builds on this).
func TestLyapunovZeroCapacityIsInert(t *testing.T) {
	l, err := NewLyapunov([]*timeseries.Series{priceSeries(10, 50, 90)}, []Battery{{}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(Battery{})
	for _, price := range []float64{5, 50, 95} {
		if act := l.Action(0, price, 25, s); act != 0 {
			t.Errorf("zero battery at price %v: action %v, want 0", price, act)
		}
	}
	if cap := l.PriceCap(0, s); !math.IsInf(cap, 1) {
		t.Errorf("zero battery advertises cap %v, want +Inf", cap)
	}
}

func TestLyapunovClusterCount(t *testing.T) {
	prices := []*timeseries.Series{priceSeries(10, 90), priceSeries(20, 80)}
	b := []Battery{lyapunovBattery(), lyapunovBattery()}
	l, err := NewLyapunov(prices, b, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.ClusterCount() != 2 {
		t.Errorf("ClusterCount = %d, want 2", l.ClusterCount())
	}
	cfg := &Config{Batteries: b, Policy: l}
	if err := cfg.Validate(2); err != nil {
		t.Errorf("config validation: %v", err)
	}
	if err := cfg.Validate(3); err == nil {
		t.Error("config sized for 2 clusters validated against 3")
	}
}
