package experiments

import (
	"fmt"
	"strings"

	"powerroute/internal/cluster"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/report"
	"powerroute/internal/routing"
	"powerroute/internal/sched"
	"powerroute/internal/sim"
	"powerroute/internal/stats"
)

func init() {
	registry = append(registry,
		Definition{"ext-deferrable", "Extension: deferrable batch class — price gates, peak guard, migration", ExtDeferrableBatch},
		Definition{"ext-batchpareto", "Extension: batch SLA vs bill Pareto (deadline slack × execution floor)", ExtBatchPareto},
	)
}

// fleetBatchJobs builds the synthetic deferrable workload the batch
// experiments replay: every `every` steps each cluster receives one job of
// kwhPerServer×servers energy, due `slack` steps later, with the given
// partial-execution floor. Arrivals stop early enough that every deadline
// lands inside the horizon, so nothing is left pending at finalize and
// served+shed accounts for the whole workload.
func fleetBatchJobs(f *cluster.Fleet, every, slack, horizon int, kwhPerServer, floor float64) []sched.Job {
	var jobs []sched.Job
	for arrival := 0; arrival+slack <= horizon; arrival += every {
		for c, cl := range f.Clusters {
			jobs = append(jobs, sched.Job{
				Cluster:     c,
				Arrival:     arrival,
				Deadline:    arrival + slack,
				EnergyKWh:   kwhPerServer * float64(cl.Servers),
				MinFraction: floor,
			})
		}
	}
	return jobs
}

// batchVectors derives the per-cluster scheduler vectors: wattsPerServer
// of batch serving capacity, and a price gate at the pctl-th quantile of
// each cluster's own hub real-time history.
func batchVectors(env *Env, wattsPerServer, pctl float64) (maxKW, thresholds []float64, err error) {
	fleet := env.System.Fleet
	prices, err := clusterPrices(env)
	if err != nil {
		return nil, nil, err
	}
	nc := len(fleet.Clusters)
	maxKW = make([]float64, nc)
	thresholds = make([]float64, nc)
	for c, cl := range fleet.Clusters {
		maxKW[c] = wattsPerServer * float64(cl.Servers) / 1000
		q, err := stats.Quantile(prices[c].Values, pctl)
		if err != nil {
			return nil, nil, err
		}
		thresholds[c] = q
	}
	return maxKW, thresholds, nil
}

// batchWorkloadKWh sums a job list's total energy.
func batchWorkloadKWh(jobs []sched.Job) float64 {
	var sum float64
	for _, j := range jobs {
		sum += j.EnergyKWh
	}
	return sum
}

// openGate is a price threshold no generated price reaches: the
// serve-on-arrival baseline's gate, always open.
const openGate = 1e9

// ExtDeferrableBatch layers a daily deferrable workload (0.6 kWh/server,
// 48 h of slack, 50% execution floor) on the 39-month price-routed world
// under a demand-charge tariff, and switches the scheduler's levers on one
// at a time: serve-on-arrival (gate open, no guard), the p30 price gate,
// the demand-peak guard, and cross-region migration. The bill delta
// against serve-on-arrival is the value of deferral; shed energy and mean
// queue delay are its SLA price.
func ExtDeferrableBatch(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System
	const (
		wattsPerServer = 50
		kwhPerServer   = 0.6
		everySteps     = 24
		slackSteps     = 48
		floor          = 0.5
		gatePctl       = 0.30
	)
	maxKW, thresholds, err := batchVectors(env, wattsPerServer, gatePctl)
	if err != nil {
		return nil, err
	}
	jobs := fleetBatchJobs(sys.Fleet, everySteps, slackSteps, sys.Market.Hours, kwhPerServer, floor)
	workload := batchWorkloadKWh(jobs)

	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		return nil, err
	}
	base.DemandChargePerKW = 12.0

	type config struct {
		label          string
		gate           bool // p30 price gate instead of the open gate
		guard, migrate bool
	}
	configs := []config{
		{"Serve on arrival", false, false, false},
		{"Price gate (p30)", true, false, false},
		{"Gate + peak guard", true, true, false},
		{"Gate + guard + migration", true, true, true},
	}
	results := make([]*sim.Result, len(configs))
	tasks := make([]func() error, len(configs))
	for i, cfg := range configs {
		tasks[i] = func() error {
			opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
			if err != nil {
				return err
			}
			sc := base
			sc.Policy = opt
			th := thresholds
			if !cfg.gate {
				th = make([]float64, len(thresholds))
				for c := range th {
					th[c] = openGate
				}
			}
			sc.Batch = &sched.Config{
				MaxBatchKW: maxKW, Thresholds: th,
				PeakGuard: cfg.guard, Migrate: cfg.migrate,
				Jobs: jobs,
			}
			results[i], err = sim.Run(sc)
			return err
		}
	}
	if err := runTasks(tasks...); err != nil {
		return nil, err
	}

	ref := results[0]
	t := report.NewTable(
		fmt.Sprintf("Deferrable batch on the 39-month market ($12/kW-month tariff; %.0f W/server batch, %.1f kWh/server/day, %dh slack, %.0f%% floor)",
			float64(wattsPerServer), kwhPerServer, slackSteps, 100*floor),
		"Scheduler", "Total bill", "Demand charge", "Served", "Shed", "Mean delay (h)", "Normalized")
	for i, cfg := range configs {
		r := results[i]
		delay := 0.0
		if r.BatchServedKWh > 0 {
			delay = r.BatchDeferredKWhSteps / (r.BatchServedKWh + r.BatchShedKWh)
		}
		t.Add(cfg.label, r.TotalCost.String(), r.DemandCharge.String(),
			pct(r.BatchServedKWh/workload), pct(r.BatchShedKWh/workload),
			fmt.Sprintf("%.1f", delay), fmt.Sprintf("%.4f", r.NormalizedCost(ref)))
	}
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}
	full := results[len(results)-1]
	if full.TotalCost < ref.TotalCost {
		fmt.Fprintf(&b, "\nDeferring batch into cheap hours cuts the total bill %s against\nserve-on-arrival while still serving %s of the workload: the batch class\nturns deadline slack directly into money.\n",
			pct(1-full.NormalizedCost(ref)), pct(full.BatchServedKWh/workload))
	} else {
		b.WriteString("\nNOTE: deferral did not beat serve-on-arrival for this seed.\n")
	}
	return render("ext-deferrable", "Deferrable batch class", &b), nil
}

// ExtBatchPareto sweeps the two SLA knobs — deadline slack and the
// partial-execution floor — over the full scheduler (p30 gate, peak
// guard, migration) and maps the SLA-vs-bill Pareto frontier: looser
// deadlines and lower floors buy cheaper bills, paid for in queue delay
// and shed energy.
func ExtBatchPareto(env *Env) (*Result, error) {
	var b strings.Builder
	sys := env.System
	const (
		wattsPerServer = 50
		kwhPerServer   = 0.6
		everySteps     = 24
		gatePctl       = 0.30
	)
	maxKW, thresholds, err := batchVectors(env, wattsPerServer, gatePctl)
	if err != nil {
		return nil, err
	}
	base, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		return nil, err
	}
	base.DemandChargePerKW = 12.0
	slacks := []int{12, 48, 168}
	floors := []float64{0.0, 0.5, 1.0}

	type point struct {
		slack     int
		floor     float64
		res       *sim.Result
		workload  float64
		reference bool
	}
	var points []point
	// The serve-on-arrival reference uses the tightest slack's workload:
	// what the bill looks like when nothing is deferrable.
	points = append(points, point{slack: slacks[0], floor: 1.0, reference: true})
	for _, slack := range slacks {
		for _, floor := range floors {
			points = append(points, point{slack: slack, floor: floor})
		}
	}

	tasks := make([]func() error, len(points))
	for i := range points {
		p := &points[i]
		tasks[i] = func() error {
			opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
			if err != nil {
				return err
			}
			jobs := fleetBatchJobs(sys.Fleet, everySteps, p.slack, sys.Market.Hours, kwhPerServer, p.floor)
			p.workload = batchWorkloadKWh(jobs)
			th := thresholds
			guard, migrate := true, true
			if p.reference {
				th = make([]float64, len(thresholds))
				for c := range th {
					th[c] = openGate
				}
				guard, migrate = false, false
			}
			sc := base
			sc.Policy = opt
			sc.Batch = &sched.Config{
				MaxBatchKW: maxKW, Thresholds: th,
				PeakGuard: guard, Migrate: migrate,
				Jobs: jobs,
			}
			p.res, err = sim.Run(sc)
			return err
		}
	}
	if err := runTasks(tasks...); err != nil {
		return nil, err
	}

	ref := points[0].res
	t := report.NewTable(
		fmt.Sprintf("Batch SLA vs bill (full scheduler, p%d gate; %.1f kWh/server/day)", int(100*gatePctl), kwhPerServer),
		"Slack (h)", "Floor", "Total bill", "Served", "Shed", "Mean delay (h)", "vs serve-now")
	for _, p := range points {
		r := p.res
		delay := 0.0
		if done := r.BatchServedKWh + r.BatchShedKWh; done > 0 {
			delay = r.BatchDeferredKWhSteps / done
		}
		label := fmt.Sprintf("%d", p.slack)
		if p.reference {
			label = fmt.Sprintf("%d (serve now)", p.slack)
		}
		t.Add(label, fmt.Sprintf("%.1f", p.floor), r.TotalCost.String(),
			pct(r.BatchServedKWh/p.workload), pct(r.BatchShedKWh/p.workload),
			fmt.Sprintf("%.1f", delay), fmt.Sprintf("%.4f", r.NormalizedCost(ref)))
	}
	if _, err := t.WriteTo(&b); err != nil {
		return nil, err
	}
	// Compare like with like: the floor-1.0 column serves the whole
	// workload at every slack, so its bill isolates the deadline knob.
	loosest := points[len(points)-1].res // slack 168h, floor 1.0
	tightest := points[len(floors)].res  // slack 12h, floor 1.0
	if loosest.TotalCost < tightest.TotalCost {
		fmt.Fprintf(&b, "\nLoosening the deadline from %dh to %dh moves the bill from %.4f to %.4f of\nthe serve-now reference: slack is the currency the scheduler spends at the\nprice gate.\n",
			slacks[0], slacks[len(slacks)-1],
			tightest.NormalizedCost(ref), loosest.NormalizedCost(ref))
	} else {
		b.WriteString("\nNOTE: looser deadlines did not reduce the bill for this seed.\n")
	}
	return render("ext-batchpareto", "Batch SLA vs bill Pareto", &b), nil
}
