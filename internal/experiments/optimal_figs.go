package experiments

import (
	"fmt"
	"strings"

	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/report"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
	"powerroute/internal/stats"
	"powerroute/internal/storage"
	"powerroute/internal/units"
)

func init() {
	registry = append(registry,
		Definition{"ext-optimal", "Extension: offline dispatch oracle & captured fraction per policy", ExtOptimalDispatch},
	)
}

// traceRecorder is a do-nothing dispatch policy that records the exact
// (billing price, IT draw) pair the engine offers each cluster every
// interval. Installed alongside zero-capacity batteries it leaves the run
// byte-identical to a storage-free simulation (its action is always zero
// and the batteries cannot move energy anyway) while capturing precisely
// the trace the offline oracle prices against — the driver's own lookup
// semantics and billing instants, not a reimplementation of them.
type traceRecorder struct {
	prices [][]float64 // per cluster, per step, $/MWh as billed
	itKW   [][]float64 // per cluster, per step, IT grid draw before storage
}

func newTraceRecorder(clusters, steps int) *traceRecorder {
	r := &traceRecorder{
		prices: make([][]float64, clusters),
		itKW:   make([][]float64, clusters),
	}
	for c := range r.prices {
		r.prices[c] = make([]float64, 0, steps)
		r.itKW[c] = make([]float64, 0, steps)
	}
	return r
}

func (r *traceRecorder) Name() string { return "trace-recorder" }

func (r *traceRecorder) Action(c int, price, itLoadKW float64, _ *storage.State) float64 {
	r.prices[c] = append(r.prices[c], price)
	r.itKW[c] = append(r.itKW[c], itLoadKW)
	return 0
}

// ExtOptimalDispatch scores every online dispatch policy against the
// offline optimum. A first pass runs the Akamai-like baseline with a
// zero-capacity recording installation to (a) reproduce the storage-free
// bill and (b) capture each cluster's billed price and IT-draw trace. The
// DP oracle (storage.OptimalDispatch) then prices the best possible
// dispatch of the real battery over that fixed trace — routing here is
// never storage-aware, so cluster loads are identical across every
// configuration and the per-cluster decomposition is exact. Each online
// policy's report card is its captured fraction: the share of the oracle's
// 39-month bill cut that the policy realizes knowing only the current
// price.
func ExtOptimalDispatch(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System
	nc := len(sys.Fleet.Clusters)
	prices, err := clusterPrices(env)
	if err != nil {
		return nil, err
	}
	batteries := fleetBatteries(sys.Fleet, 1.0, 150, 150, 0.85)

	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		return nil, err
	}
	stepHours := base.Step.Hours()

	// Pass 1: storage-free reference + trace capture in a single run.
	rec := newTraceRecorder(nc, base.Steps)
	refSc := base
	refSc.Policy = routing.NewBaseline(sys.Fleet)
	refSc.Storage = &storage.Config{Batteries: make([]storage.Battery, nc), Policy: rec}
	ref, err := sim.Run(refSc)
	if err != nil {
		return nil, err
	}
	baseUSD := float64(ref.EnergyCost)

	// Pass 2: the oracle, one DP per cluster. 100 SoC levels keep the
	// grid fine enough to resolve the per-server rates (13/16 grid steps
	// of charge/discharge reach per hour) while bounding the traceback to
	// a few MB per cluster.
	const socLevels = 100
	oracle := make([]storage.OptimalResult, nc)
	if err := forEach(0, nc, func(c int) error {
		var err error
		oracle[c], err = storage.OptimalDispatch(batteries[c], rec.prices[c], rec.itKW[c], stepHours, socLevels)
		return err
	}); err != nil {
		return nil, err
	}
	var oracleUSD float64
	for c := range oracle {
		oracleUSD += oracle[c].CostUSD
	}
	headroomUSD := baseUSD - oracleUSD

	// Pass 3: the four online policies over identical loads.
	var all []float64
	for c := range rec.prices {
		all = append(all, rec.prices[c]...)
	}
	qs, err := stats.Quantiles(all, 0.20, 0.80)
	if err != nil {
		return nil, err
	}
	threshold, err := storage.NewThreshold(qs[0], qs[1])
	if err != nil {
		return nil, err
	}
	percentile, err := storage.NewPercentile(prices, 0.20, 0.80)
	if err != nil {
		return nil, err
	}
	targets := make([]float64, nc)
	floors := make([]float64, nc)
	for c, trace := range rec.itKW {
		var peak float64
		for _, kw := range trace {
			if kw > peak {
				peak = kw
			}
		}
		targets[c] = 0.9 * peak
		floors[c] = 0.7 * peak
	}
	shaver, err := storage.NewPeakShaver(targets, floors)
	if err != nil {
		return nil, err
	}
	lyapunov, err := storage.NewLyapunov(prices, batteries, stepHours, 0)
	if err != nil {
		return nil, err
	}

	type config struct {
		label    string
		dispatch storage.Policy
	}
	configs := []config{
		{"Greedy threshold (fleet p20/p80)", threshold},
		{"Per-hub percentile (p20/p80)", percentile},
		{"Peak shaver (90%/70% of peak draw)", shaver},
		{"Lyapunov drift-plus-penalty (auto V)", lyapunov},
	}
	results := make([]*sim.Result, len(configs))
	tasks := make([]func() error, len(configs))
	for i, cfg := range configs {
		tasks[i] = func() error {
			sc := base
			sc.Policy = routing.NewBaseline(sys.Fleet)
			sc.Storage = &storage.Config{Batteries: batteries, Policy: cfg.dispatch}
			var err error
			results[i], err = sim.Run(sc)
			return err
		}
	}
	if err := runTasks(tasks...); err != nil {
		return nil, err
	}

	captured := func(r *sim.Result) float64 {
		return (baseUSD - float64(r.EnergyCost)) / headroomUSD
	}
	t := report.NewTable("Online dispatch vs the offline oracle (1 kWh/150 W per server, 85% RTE, Akamai-like routing, 39 months)",
		"Dispatch", "Energy bill", "Saved", "Captured")
	t.Add("No battery", ref.EnergyCost.String(), pct(0), "—")
	for i, cfg := range configs {
		r := results[i]
		t.Add(cfg.label, r.EnergyCost.String(),
			pct(1-float64(r.EnergyCost)/baseUSD), fmt.Sprintf("%.4f", captured(r)))
	}
	t.Add("Offline oracle (DP, full price trace)", units.Money(oracleUSD).String(),
		pct(1-oracleUSD/baseUSD), "1.0000")
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}

	fmt.Fprintf(&b, "\nPerfect hindsight cuts the %s bill by %s (%s); no causal policy can beat\nthat bound over these loads.\n",
		ref.EnergyCost, units.Money(headroomUSD).String(), pct(headroomUSD/baseUSD))
	ly, th := captured(results[3]), captured(results[0])
	if ly > th {
		fmt.Fprintf(&b, "The Lyapunov controller captures %s of the offline optimum against the greedy\nthreshold's %s — its SoC-dependent indifference price keeps headroom for price\nspikes that fixed thresholds sleep through.\n",
			pct(ly), pct(th))
	} else {
		fmt.Fprintf(&b, "NOTE: the Lyapunov controller (%s captured) did not beat the greedy\nthreshold (%s) under this seed.\n", pct(ly), pct(th))
	}
	return render("ext-optimal", "Offline oracle & captured fraction", &b), nil
}
