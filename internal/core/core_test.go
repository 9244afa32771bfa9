package core

import (
	"math"
	"sync"
	"testing"

	"powerroute/internal/energy"
)

// testSystem is a reduced world (8-day trace, 3-month market) shared by the
// package's tests; the full-size world is exercised by the experiments
// package and benchmarks.
var testSystem = sync.OnceValue(func() *System {
	return MustNewSystem(Options{Seed: 3, MarketMonths: 3, TraceDays: 8})
})

// fullMarketSystem has a market long enough to cover the default trace
// window (the 24-day trace starts December 2008, so the market must reach
// it).
var fullMarketSystem = sync.OnceValue(func() *System {
	return MustNewSystem(Options{Seed: 3, TraceDays: 8})
})

func TestNewSystem(t *testing.T) {
	s := testSystem()
	if len(s.Fleet.Clusters) != 9 {
		t.Errorf("fleet has %d clusters", len(s.Fleet.Clusters))
	}
	if s.Market.Hours != (31+28+31)*24 {
		t.Errorf("market hours = %d", s.Market.Hours)
	}
	if s.Trace.Samples != 8*288 {
		t.Errorf("trace samples = %d", s.Trace.Samples)
	}
	if s.LongRun == nil {
		t.Error("LongRun missing")
	}
}

func TestNewSystemErrors(t *testing.T) {
	if _, err := NewSystem(Options{MarketMonths: -1}); err == nil {
		t.Error("bad months should fail")
	}
	if _, err := NewSystem(Options{TraceDays: -1}); err == nil {
		t.Error("bad days should fail")
	}
}

func TestMustNewSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewSystem should panic")
		}
	}()
	MustNewSystem(Options{MarketMonths: -1})
}

func TestHorizonString(t *testing.T) {
	if Trace24Day.String() == "" || LongRun39Months.String() == "" {
		t.Error("horizon names empty")
	}
	if Horizon(9).String() != "Horizon(9)" {
		t.Error("unknown horizon formatting")
	}
}

func TestBaselineCaching(t *testing.T) {
	s := testSystem()
	caps1, res1, err := s.Baseline(LongRun39Months, energy.OptimisticFuture)
	if err != nil {
		t.Fatal(err)
	}
	caps2, res2, err := s.Baseline(LongRun39Months, energy.OptimisticFuture)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("baseline not cached (different pointers)")
	}
	if &caps1[0] != &caps2[0] {
		t.Error("caps not cached")
	}
	// A different energy model is a different cache entry with different
	// cost but identical caps (caps depend only on traffic).
	_, res3, err := s.Baseline(LongRun39Months, energy.CuttingEdge)
	if err != nil {
		t.Fatal(err)
	}
	if res3 == res1 {
		t.Error("distinct energy models share a baseline")
	}
	caps3, _, _ := s.Baseline(LongRun39Months, energy.CuttingEdge)
	for c := range caps1 {
		if math.Abs(caps1[c]-caps3[c]) > 1e-9 {
			t.Error("caps differ across energy models; they must not")
		}
	}
}

func TestRunLongRun(t *testing.T) {
	s := testSystem()
	out, err := s.Run(RunConfig{
		Horizon:             LongRun39Months,
		Energy:              energy.OptimisticFuture,
		DistanceThresholdKm: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Savings <= 0 {
		t.Errorf("savings = %v, want > 0", out.Savings)
	}
	if math.Abs(out.Savings+out.NormalizedCost-1) > 1e-9 {
		t.Error("savings and normalized cost inconsistent")
	}
	if out.Baseline == nil || out.Optimized == nil || out.Caps == nil {
		t.Error("incomplete outcome")
	}
}

func TestRunTraceHorizon(t *testing.T) {
	s := fullMarketSystem()
	relaxed, err := s.Run(RunConfig{
		Horizon:             Trace24Day,
		Energy:              energy.OptimisticFuture,
		DistanceThresholdKm: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	follow, err := s.Run(RunConfig{
		Horizon:             Trace24Day,
		Energy:              energy.OptimisticFuture,
		DistanceThresholdKm: 1500,
		Follow95:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if follow.Savings >= relaxed.Savings {
		t.Errorf("follow-95/5 savings %.3f not below relaxed %.3f", follow.Savings, relaxed.Savings)
	}
	if follow.Savings <= 0 {
		t.Errorf("follow-95/5 savings %.3f, want > 0", follow.Savings)
	}
}

func TestRunConfigDefaults(t *testing.T) {
	cfg := RunConfig{}
	if cfg.priceThreshold() != 5 {
		t.Errorf("default price threshold = %v, want 5", cfg.priceThreshold())
	}
	cfg.NoPriceThresholdDefault = true
	if cfg.priceThreshold() != 0 {
		t.Errorf("ablated price threshold = %v, want 0", cfg.priceThreshold())
	}
	cfg = RunConfig{PriceThresholdDollars: 20}
	if cfg.priceThreshold() != 20 {
		t.Error("explicit price threshold ignored")
	}
	if (RunConfig{}).delay().Hours() != 1 {
		t.Error("default delay should be 1 hour")
	}
	if (RunConfig{ReactImmediately: true}).delay() != 0 {
		t.Error("immediate reaction ignored")
	}
}

func TestStaticCheapest(t *testing.T) {
	s := testSystem()
	choice, err := s.StaticCheapest(LongRun39Months, energy.OptimisticFuture)
	if err != nil {
		t.Fatal(err)
	}
	if choice.HubID == "" || choice.Result == nil {
		t.Fatal("empty static choice")
	}
	// The cheapest static site beats the proximity baseline on cost when
	// clusters are fully elastic (it pays the lowest prices all the time).
	if choice.NormalizedCost >= 1 {
		t.Errorf("static normalized cost %.3f, want < 1", choice.NormalizedCost)
	}
	// The winning hub should be a cheap one (MISO/PJM-west territory in
	// our calibration, mirroring the paper's Midwest pricing).
	cheap := map[string]bool{"IL": true, "CHI": true, "AMIL": true, "MN": true, "WI": true, "AEP": true, "CIN": true}
	if !cheap[choice.HubID] {
		t.Errorf("static winner %s is not one of the cheap hubs", choice.HubID)
	}
}

func TestConcurrentRuns(t *testing.T) {
	s := testSystem()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Run(RunConfig{
				Horizon:             LongRun39Months,
				Energy:              energy.OptimisticFuture,
				DistanceThresholdKm: float64(200 * (i + 1)),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}

func TestSystemDeterminism(t *testing.T) {
	a := MustNewSystem(Options{Seed: 9, MarketMonths: 2, TraceDays: 4})
	b := MustNewSystem(Options{Seed: 9, MarketMonths: 2, TraceDays: 4})
	oa, err := a.Run(RunConfig{Horizon: LongRun39Months, Energy: energy.OptimisticFuture, DistanceThresholdKm: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Run(RunConfig{Horizon: LongRun39Months, Energy: energy.OptimisticFuture, DistanceThresholdKm: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if oa.Savings != ob.Savings {
		t.Errorf("same seed, different savings: %v vs %v", oa.Savings, ob.Savings)
	}
}
