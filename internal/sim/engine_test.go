package sim

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"powerroute/internal/carbon"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/sched"
	"powerroute/internal/stats"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
	"powerroute/internal/traffic"
)

// driveSteps advances eng through the next `steps` intervals the way an
// online caller (the powerrouted daemon) would: explicit per-interval
// price and demand vectors fed into Step, picking up from wherever the
// engine's cursor stands. It mirrors Run's lookup semantics exactly —
// same delay clamp, same covering sample — so driving a full scenario
// must be bit-for-bit the batch Result.
func driveSteps(t testing.TB, eng *Engine, sc Scenario, steps int) {
	t.Helper()
	prices := eng.PriceSeries()
	signal := prices
	if sc.DecisionSeries != nil {
		signal = sc.DecisionSeries
	}
	nc := len(sc.Fleet.Clusters)
	decision := make([]float64, nc)
	bill := make([]float64, nc)
	var carbonVec []float64
	if sc.Carbon != nil {
		carbonVec = make([]float64, nc)
	}
	var demand []float64
	marketStart := prices[0].Start
	for step := 0; step < steps; step++ {
		at := eng.Next()
		demand = sc.Demand.Rates(at, demand)
		decisionAt := at.Add(-sc.ReactionDelay)
		if decisionAt.Before(marketStart) {
			decisionAt = marketStart
		}
		for c := range signal {
			v, err := signal[c].At(decisionAt)
			if err != nil {
				t.Fatal(err)
			}
			decision[c] = v
		}
		for c := range prices {
			v, err := prices[c].At(at)
			if err != nil {
				t.Fatal(err)
			}
			bill[c] = v
		}
		if sc.Carbon != nil {
			for c := range sc.Carbon {
				v, err := sc.Carbon[c].At(at)
				if err != nil {
					t.Fatal(err)
				}
				carbonVec[c] = v
			}
		}
		if err := eng.Step(at, StepPrices{Decision: decision, Bill: bill, Carbon: carbonVec}, demand); err != nil {
			t.Fatalf("step %d at %v: %v", step, at, err)
		}
	}
}

// driveEngine replays the whole scenario through a fresh Engine and closes
// the books.
func driveEngine(t testing.TB, sc Scenario) *Result {
	t.Helper()
	eng, err := NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, eng, sc, sc.Steps)
	res, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// engineScenarios covers every subsystem the step loop threads state
// through: plain routing, 95/5 constraints, carbon-aware decision
// override, and batteries plus a demand-charge tariff.
func engineScenarios(t testing.TB) map[string]Scenario {
	t.Helper()
	fx := fixtures()

	base := shortScenario()
	opt, err := routing.NewPriceOptimizer(fx.Fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	base.Policy = opt

	capped := shortScenario()
	caps, _, err := DeriveCaps(capped)
	if err != nil {
		t.Fatal(err)
	}
	opt2, err := routing.NewPriceOptimizer(fx.Fleet, 2500, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	capped.Policy = opt2
	capped.SoftCaps = caps

	intensity, err := carbon.FleetSeries(1, fx.Fleet, fx.Market.Start, fx.Market.Hours)
	if err != nil {
		t.Fatal(err)
	}
	carbonAware := Scenario{
		Fleet:          fx.Fleet,
		Policy:         routing.NewBaseline(fx.Fleet),
		Energy:         energy.OptimisticFuture,
		Market:         fx.Market,
		Demand:         fx.LR,
		Start:          fx.Market.Start,
		Steps:          10 * 24,
		Step:           time.Hour,
		ReactionDelay:  DefaultReactionDelay,
		Carbon:         intensity,
		DecisionSeries: intensity,
	}

	dispatch, err := storage.NewThreshold(25, 55)
	if err != nil {
		t.Fatal(err)
	}
	stored := Scenario{
		Fleet:         fx.Fleet,
		Policy:        routing.NewBaseline(fx.Fleet),
		Energy:        energy.OptimisticFuture,
		Market:        fx.Market,
		Demand:        fx.LR,
		Start:         fx.Market.Start,
		Steps:         10 * 24,
		Step:          time.Hour,
		ReactionDelay: DefaultReactionDelay,
		Storage: &storage.Config{
			Batteries: uniformBatteries(len(fx.Fleet.Clusters)),
			Policy:    dispatch,
		},
		DemandChargePerKW: 3,
	}
	stored.Storage.RoutingAware = true

	// The Lyapunov scenario exercises the fourth dispatch policy through
	// every harness built on this map: zero allocs per Step, checkpoint
	// round-trip bit-exactness, and restore-equals-uninterrupted.
	lyPrices := make([]*timeseries.Series, len(fx.Fleet.Clusters))
	for c, cl := range fx.Fleet.Clusters {
		s, err := fx.Market.RT(cl.HubID)
		if err != nil {
			t.Fatal(err)
		}
		lyPrices[c] = s
	}
	lyapunov, err := storage.NewLyapunov(lyPrices, uniformBatteries(len(fx.Fleet.Clusters)), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lyStored := stored
	lyStored.Storage = &storage.Config{
		Batteries:    uniformBatteries(len(fx.Fleet.Clusters)),
		Policy:       lyapunov,
		RoutingAware: true,
	}

	// The batch scenario threads the deferrable scheduler through every
	// harness built on this map: zero allocs per Step, checkpoint
	// round-trip bit-exactness, and restore-equals-uninterrupted. Tight
	// capacity, a peak guard, migration, and mixed floors keep all four
	// dispatch phases (expiry, urgent, gated, migrated) busy.
	batched := shortScenario()
	batched.Policy = opt
	batched.DemandChargePerKW = 3
	batched.Batch = batchTestConfig(t, batched)

	return map[string]Scenario{
		"optimizer":    base,
		"softcaps":     capped,
		"carbon-aware": carbonAware,
		"storage":      stored,
		"lyapunov":     lyStored,
		"batch":        batched,
	}
}

// batchTestConfig builds a deferrable-batch config sized to a short
// scenario: per-cluster price gates at the hub's p40 real-time quantile,
// a modest serving capacity, and a job stream with staggered arrivals,
// deadlines, and execution floors.
func batchTestConfig(t testing.TB, sc Scenario) *sched.Config {
	t.Helper()
	fx := fixtures()
	nc := len(sc.Fleet.Clusters)
	cfg := &sched.Config{
		MaxBatchKW: make([]float64, nc),
		Thresholds: make([]float64, nc),
		PeakGuard:  true,
		Migrate:    true,
	}
	for c, cl := range sc.Fleet.Clusters {
		cfg.MaxBatchKW[c] = 40
		rt, err := fx.Market.RT(cl.HubID)
		if err != nil {
			t.Fatal(err)
		}
		q, err := stats.Quantile(rt.Values, 0.40)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Thresholds[c] = q
	}
	for arrival := 0; arrival+12 < sc.Steps; arrival += 6 {
		for c := 0; c < nc; c++ {
			cfg.Jobs = append(cfg.Jobs, sched.Job{
				Cluster:     c,
				Arrival:     arrival,
				Deadline:    arrival + 4 + 3*(c%4),
				EnergyKWh:   120 + 15*float64(c),
				MinFraction: []float64{0, 0.5, 1}[(arrival/6+c)%3],
			})
		}
	}
	return cfg
}

func uniformBatteries(n int) []storage.Battery {
	bs := make([]storage.Battery, n)
	for i := range bs {
		bs[i] = storage.Battery{
			CapacityKWh:         800,
			MaxChargeKW:         300,
			MaxDischargeKW:      200,
			RoundTripEfficiency: 0.81,
		}
	}
	return bs
}

// TestEngineMatchesRunExactly: feeding an Engine by hand must reproduce
// the batch Run bit for bit — same costs, same float residue, same
// everything — across every subsystem combination.
func TestEngineMatchesRunExactly(t *testing.T) {
	for name, sc := range engineScenarios(t) {
		t.Run(name, func(t *testing.T) {
			// Policies carry per-run caches, so each side gets its own.
			batch, err := Run(clonePolicy(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			stepped := driveEngine(t, clonePolicy(t, sc))
			if !reflect.DeepEqual(batch, stepped) {
				t.Fatalf("engine result diverges from batch Run:\nbatch:   %+v\nstepped: %+v", batch, stepped)
			}
		})
	}
}

// clonePolicy returns sc with a fresh policy instance of the same kind, so
// two runs never share a PriceOptimizer's order cache.
func clonePolicy(t testing.TB, sc Scenario) Scenario {
	t.Helper()
	switch p := sc.Policy.(type) {
	case *routing.PriceOptimizer:
		fresh, err := routing.NewPriceOptimizer(sc.Fleet, p.ThresholdKm(), routing.DefaultPriceThreshold)
		if err != nil {
			t.Fatal(err)
		}
		sc.Policy = fresh
	case *routing.Baseline:
		sc.Policy = routing.NewBaseline(sc.Fleet)
	}
	return sc
}

// TestEngineLifecycle pins the incremental API contract: Next advances
// with the clock, Snapshot tracks running totals without finalizing,
// Finalize is idempotent, and Step after Finalize fails.
func TestEngineLifecycle(t *testing.T) {
	fx := fixtures()
	sc := shortScenario()
	sc.Policy = routing.NewBaseline(fx.Fleet)
	eng, err := NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Next(); !got.Equal(sc.Start) {
		t.Fatalf("Next before first step = %v, want %v", got, sc.Start)
	}

	prices := eng.PriceSeries()
	nc := len(sc.Fleet.Clusters)
	bill := make([]float64, nc)
	var demand []float64
	for step := 0; step < 2*traffic.SamplesPerDay; step++ {
		at := eng.Next()
		demand = sc.Demand.Rates(at, demand)
		for c := range prices {
			v, err := prices[c].At(at)
			if err != nil {
				t.Fatal(err)
			}
			bill[c] = v
		}
		if err := eng.Step(at, StepPrices{Decision: bill, Bill: bill}, demand); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.StepsRun(); got != 2*traffic.SamplesPerDay {
		t.Fatalf("StepsRun = %d, want %d", got, 2*traffic.SamplesPerDay)
	}
	if want := sc.Start.Add(time.Duration(2*traffic.SamplesPerDay) * sc.Step); !eng.Next().Equal(want) {
		t.Fatalf("Next = %v, want %v", eng.Next(), want)
	}

	snap := eng.Snapshot()
	if snap.Steps != 2*traffic.SamplesPerDay || snap.TotalCost <= 0 || snap.TotalEnergy <= 0 {
		t.Fatalf("implausible snapshot: %+v", snap)
	}
	var rate float64
	for _, r := range snap.ClusterRate {
		rate += r
	}
	if rate <= 0 {
		t.Fatal("snapshot lost the last interval's rates")
	}

	recorded := make([][]float64, len(eng.meters))
	for c := range eng.meters {
		recorded[c] = eng.meters[c].Samples()
	}
	res, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2*traffic.SamplesPerDay {
		t.Fatalf("finalized Steps = %d", res.Steps)
	}
	// Finalize selects the billable percentiles in one scratch buffer:
	// each bill equals the sorted-copy quantile bit for bit, and the
	// meters keep their recorded order (checkpoints serialize it).
	for c := range eng.meters {
		if !slices.Equal(eng.meters[c].Samples(), recorded[c]) {
			t.Fatalf("cluster %d: Finalize reordered the meter's record", c)
		}
		want, err := stats.Quantile(recorded[c], 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.BillableP95[c]) != math.Float64bits(want) {
			t.Fatalf("cluster %d: billable p95 %v, sorted-copy quantile %v", c, res.BillableP95[c], want)
		}
	}
	again, err := eng.Finalize()
	if err != nil || again != res {
		t.Fatalf("Finalize not idempotent: %v, %v", again, err)
	}
	if err := eng.Step(eng.Next(), StepPrices{Decision: bill, Bill: bill}, demand); err == nil {
		t.Fatal("Step after Finalize must fail")
	}
	if _, err := eng.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineInputValidation: mis-sized vectors fail fast with the books
// untouched.
func TestEngineInputValidation(t *testing.T) {
	fx := fixtures()
	sc := shortScenario()
	sc.Policy = routing.NewBaseline(fx.Fleet)
	eng, err := NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	nc := len(sc.Fleet.Clusters)
	ns := len(sc.Fleet.States)
	good := make([]float64, nc)
	demand := make([]float64, ns)
	cases := []struct {
		name     string
		decision []float64
		bill     []float64
		demand   []float64
	}{
		{"short demand", good, good, make([]float64, ns-1)},
		{"short decision", make([]float64, nc-1), good, demand},
		{"short bill", good, make([]float64, nc+1), demand},
	}
	for _, tc := range cases {
		if err := eng.Step(eng.Next(), StepPrices{Decision: tc.decision, Bill: tc.bill}, tc.demand); err == nil {
			t.Errorf("%s: Step accepted bad input", tc.name)
		}
	}
	if eng.StepsRun() != 0 {
		t.Fatalf("failed steps advanced the engine: %d", eng.StepsRun())
	}
	// Finalize with zero steps has no percentiles to report.
	if _, err := eng.Finalize(); err == nil {
		t.Fatal("Finalize before any step must fail")
	}
}

// TestStepRejectsBadDemand: a NaN, negative or infinite rate is refused
// before it routes, and the books stay untouched. A NaN used to take all
// remaining room of its candidates (no take > remaining test is true for
// it), a negative rate routed as zero, and +Inf routed +Inf load.
func TestStepRejectsBadDemand(t *testing.T) {
	sc := shortScenario()
	opt, err := routing.NewPriceOptimizer(sc.Fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy = opt
	eng, err := NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	prices := eng.PriceSeries()
	bill := make([]float64, len(prices))
	for c := range prices {
		if bill[c], err = prices[c].At(eng.Next()); err != nil {
			t.Fatal(err)
		}
	}
	demand := sc.Demand.Rates(eng.Next(), nil)
	for _, bad := range []float64{math.NaN(), -1, math.Inf(1)} {
		rates := slices.Clone(demand)
		rates[7] = bad
		err := eng.Step(eng.Next(), StepPrices{Decision: bill, Bill: bill}, rates)
		if err == nil || !strings.Contains(err.Error(), "state 7") {
			t.Errorf("demand %v: got %v, want an error naming state 7", bad, err)
		}
		if err := CheckDemand(rates); err == nil {
			t.Errorf("CheckDemand accepted demand %v", bad)
		}
	}
	if eng.StepsRun() != 0 {
		t.Fatalf("rejected steps advanced the engine: %d", eng.StepsRun())
	}
	for c, r := range eng.Snapshot().ClusterRate {
		if r != 0 {
			t.Fatalf("cluster %d: rejected demand metered %v hits/s", c, r)
		}
	}
	if err := CheckDemand(demand); err != nil {
		t.Fatalf("CheckDemand refused the scenario's own demand: %v", err)
	}
	if err := eng.Step(eng.Next(), StepPrices{Decision: bill, Bill: bill}, demand); err != nil {
		t.Fatalf("good demand after rejections: %v", err)
	}
}

// TestAdmissionBound: CheckDemand and CheckJob admit values up to
// MaxMagnitude and refuse the next float past it, naming the bound, while
// NaN and ±Inf keep their own wording.
func TestAdmissionBound(t *testing.T) {
	past := math.Nextafter(MaxMagnitude, math.Inf(1))
	if err := CheckDemand([]float64{0, MaxMagnitude}); err != nil {
		t.Fatalf("demand at the bound: %v", err)
	}
	if err := CheckDemand([]float64{0, past}); err == nil || !strings.Contains(err.Error(), "state 1") || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("demand past the bound: got %v, want an error naming state 1 and the bound", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		if err := CheckDemand([]float64{v}); err == nil || !strings.Contains(err.Error(), "want finite") {
			t.Errorf("demand %v: got %v, want the finite-and-non-negative wording", v, err)
		}
	}
	job := sched.Job{Cluster: 0, Deadline: 1, EnergyKWh: MaxMagnitude}
	if err := CheckJob(job, 1, 0); err != nil {
		t.Fatalf("job energy at the bound: %v", err)
	}
	job.EnergyKWh = past
	if err := CheckJob(job, 1, 0); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("job energy past the bound: got %v, want an error naming the bound", err)
	}
	job.EnergyKWh = math.Inf(1)
	if err := CheckJob(job, 1, 0); err == nil || strings.Contains(err.Error(), "bound") {
		t.Fatalf("infinite job energy: got %v, want the plain energy wording", err)
	}
}

// TestValidateStepAlignment: steps that do not tile the market hour are
// rejected instead of silently drifting across hourly price boundaries.
func TestValidateStepAlignment(t *testing.T) {
	good := shortScenario()
	good.Policy = routing.NewBaseline(good.Fleet)
	for _, step := range []time.Duration{7 * time.Minute, 25 * time.Minute, 90 * time.Minute, time.Hour + time.Nanosecond} {
		sc := good
		sc.Step = step
		if _, err := Run(sc); err == nil {
			t.Errorf("step %v accepted; misaligned price lookups", step)
		}
	}
	for _, step := range []time.Duration{5 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour} {
		sc := good
		sc.Step = step
		if err := sc.validate(); err != nil {
			t.Errorf("step %v rejected: %v", step, err)
		}
	}
}
