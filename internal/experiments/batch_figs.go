package experiments

import (
	"fmt"
	"strings"

	"powerroute/internal/batchspec"
	"powerroute/internal/cluster"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/report"
	"powerroute/internal/routing"
	"powerroute/internal/sched"
	"powerroute/internal/sim"
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

// batchWorkloadKWh sums a job list's total energy.
func batchWorkloadKWh(jobs []sched.Job) float64 {
	var sum float64
	for _, j := range jobs {
		sum += j.EnergyKWh
	}
	return sum
}

// openGates returns n price thresholds no generated price reaches: the
// serve-on-arrival baseline's gates, always open.
func openGates(n int) []float64 {
	th := make([]float64, n)
	for c := range th {
		th[c] = 1e9
	}
	return th
}

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
	gated, err := batchspec.Derive(sys.Fleet, sys.Market, wattsPerServer, gatePctl)
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
			batch := *gated
			if !cfg.gate {
				batch.Thresholds = openGates(len(batch.Thresholds))
			}
			batch.PeakGuard, batch.Migrate, batch.Jobs = cfg.guard, cfg.migrate, jobs
			sc := base
			sc.Policy = opt
			sc.Batch = &batch
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
	gated, err := batchspec.Derive(sys.Fleet, sys.Market, wattsPerServer, gatePctl)
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
			batch := *gated
			batch.PeakGuard, batch.Migrate, batch.Jobs = !p.reference, !p.reference, jobs
			if p.reference {
				batch.Thresholds = openGates(len(batch.Thresholds))
			}
			sc := base
			sc.Policy = opt
			sc.Batch = &batch
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
