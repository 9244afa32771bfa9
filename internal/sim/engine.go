// The incremental simulation engine: all per-run state of a Scenario —
// billing meters, 95/5 burst budgets, battery state-of-charge, the distance
// histogram — held explicitly and advanced one interval at a time. Each
// Step is a route half and a bill half. Long-running services
// (cmd/powerrouted) drive the engine from live price and demand feeds
// instead of pre-generated series, one Step per routing interval; the
// batch Run drives the same two halves, billing routed steps on a helper
// goroutine while later steps route.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"powerroute/internal/billing"
	"powerroute/internal/cluster"
	"powerroute/internal/energy"
	"powerroute/internal/market"
	"powerroute/internal/routing"
	"powerroute/internal/sched"
	"powerroute/internal/stats"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
	"powerroute/internal/units"
)

// StepPrices carries one interval's per-cluster price vectors into Step.
type StepPrices struct {
	// Decision is the signal the router optimizes ($/MWh, or whatever the
	// scenario's DecisionSeries meters). Any reaction delay is the caller's
	// concern: batch Run looks these up ReactionDelay in the past, an online
	// daemon's staleness is however old its freshest feed entry is.
	Decision []float64
	// Bill is the real-time price each cluster's grid draw is billed at.
	Bill []float64
	// Carbon is the hourly intensity (gCO₂/kWh); required exactly when the
	// scenario meters carbon, ignored otherwise.
	Carbon []float64
}

// Engine advances a Scenario one interval at a time. Build one with
// NewEngine, call Step once per interval in chronological order, then
// Finalize to close the books and obtain the Result. Engines are not
// goroutine-safe; wrap them in a lock to serve concurrent feeds
// (internal/server does).
//
// Every field is per-run state unless annotated otherwise: ckptfield
// (cmd/powerroute-vet) verifies each one is referenced by Checkpoint and
// loadCheckpoint, so a new field cannot silently escape the checkpoint.
//
// ckpt:state Checkpoint,loadCheckpoint
type Engine struct {
	sc        Scenario
	nc, ns    int
	stepHours float64 // ckpt:immutable derived from sc.Step at construction
	// policyName caches sc.Policy.Name(), which checkpoints, snapshots and
	// the Result echo.
	policyName string // ckpt:immutable cached at construction, as dispatchName is

	prices []*timeseries.Series // resolved per-cluster RT series

	constraints []*billing.Constraint
	// gate decides when soft-capped burst room unlocks: the scenario's
	// BurstGate, or SelfGate when it configures none. leases books every
	// token per cluster, and is nil unless the scenario set a BurstGate.
	gate   BurstGate // ckpt:immutable scenario configuration, rebuilt by NewEngine
	leases []*billing.LeaseLedger
	// leaseGranted marks the clusters granted a burst token this step, so
	// the commit loop can book each token as used or expired.
	leaseGranted []bool // ckpt:derived per-step scratch cleared by the gate block

	batteries    []*storage.State
	dispatch     storage.Policy      // ckpt:immutable scenario configuration, rebuilt by NewEngine
	dispatchName string              // ckpt:immutable cached Policy.Name(), so status paths never format on the hot path
	priceCapper  storage.PriceCapper // ckpt:immutable the dispatch policy's capper interface, rebuilt by NewEngine
	priceCaps    []float64           // ckpt:derived scratch recomputed from priceCapper every Step
	demandMeters []*billing.DemandMeter

	// books holds every running sum the bill half accumulates, one value
	// per cluster; its storage totals stay nil, since each battery keeps
	// its own. Fleet-wide figures are never accumulated across clusters
	// while stepping: foldBill derives them in fleet order for Snapshot
	// and Finalize. That makes every number a shard merge produces
	// bit-identical to the joint run's: a shard scatters its per-cluster
	// sums into fleet positions and the same fold runs over them.
	books Totals
	// res is set only by Finalize, from the books, which it leaves as
	// they were; non-nil marks the engine finalized.
	res    *Result // ckpt:derived built by Finalize, and a finalized engine cannot be checkpointed
	meters []billing.Meter
	// distHists holds one hit-weighted distance histogram per cluster.
	// Routing closure means cluster c sees the same adds in the same order
	// whether it runs in the joint engine or its own shard, so each
	// per-cluster histogram is bit-identical across a split; the fleet
	// distribution is re-derived by a fixed fleet-order fold (distTotal),
	// which is what makes the merged mean/p99 exact rather than
	// float-associativity-close.
	distHists []*stats.WeightedHistogram
	assign    [][]float64
	// assignBuf is the flat backing array of assign's rows, so Step clears
	// the whole matrix with one range loop (compiled to a memclr) instead of
	// ns short loops.
	assignBuf []float64        // ckpt:derived scratch; assign's rows alias it and carry the state
	ctx       *routing.Context // ckpt:derived scratch rebuilt from fleet and loads every Step
	loads     []float64
	// capacities caches the fleet's per-cluster capacities as floats.
	capacities []float64 // ckpt:immutable derived from sc.Fleet at construction
	// room is each cluster's soft-capped room, min(softcap, capacity), and
	// roomTotal their fleet-order sum (burstRoom); nil and 0 unless the
	// scenario sets soft caps.
	room      []float64 // ckpt:immutable derived from sc.SoftCaps and sc.Fleet at construction
	roomTotal float64   // ckpt:immutable derived from sc.SoftCaps and sc.Fleet at construction
	// powerEval holds each cluster's energy model bound to its server count
	// with the load-independent terms folded (bit-identical to sc.Energy).
	powerEval []energy.Evaluator // ckpt:immutable derived from sc.Energy and sc.Fleet at construction
	// distBin caches each state→cluster distance's histogram bin, since the
	// geometry never changes; Step feeds weights straight into the bin.
	distBin [][]int // ckpt:immutable derived from sc.Fleet and the histogram geometry at construction

	// Deferrable (batch) class state; all nil unless sc.Batch is set.
	sched        *sched.Scheduler
	batchKW      []float64 // ckpt:derived per-step scratch filled by Dispatch
	batchShedKWh []float64 // ckpt:derived per-step scratch filled by Dispatch
	headroomKW   []float64 // ckpt:derived per-step scratch for the peak guard

	// gridWh stages each cluster's grid energy (Wh) between the metering
	// and billing halves of Step, so batch dispatch can see every
	// cluster's interactive draw before any of it is billed.
	gridWh []units.Energy // ckpt:derived per-step scratch

	stepsRun int
	lastAt   time.Time

	// worldHash is computed lazily by WorldHash (checkpoint.go) and cached;
	// the step hot path never reads it.
	worldHash string
}

// ClusterPrices resolves every cluster's billing price series, its hub's
// real-time history, from the market, in fleet order. NewEngine and
// Scenario.WorldHash resolve them through it, and so does every caller
// that derives per-cluster figures from the prices a run bills at.
func ClusterPrices(fleet *cluster.Fleet, mkt *market.Dataset) ([]*timeseries.Series, error) {
	prices := make([]*timeseries.Series, len(fleet.Clusters))
	for c, cl := range fleet.Clusters {
		s, err := mkt.RT(cl.HubID)
		if err != nil {
			return nil, fmt.Errorf("sim: cluster %s: %w", cl.Code, err)
		}
		prices[c] = s
	}
	return prices, nil
}

// NewEngine validates the scenario and builds the per-run state. The
// scenario's Demand source and horizon (Start/Steps) describe the batch
// run the engine was sized for — constraint burst budgets derive from
// Steps — but Step itself is driven entirely by its arguments, so an
// online caller may feed any aligned sequence of intervals.
func NewEngine(sc Scenario) (*Engine, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	nc := len(sc.Fleet.Clusters)
	ns := len(sc.Fleet.States)

	e := &Engine{
		sc:         sc,
		nc:         nc,
		ns:         ns,
		stepHours:  sc.Step.Hours(),
		policyName: sc.Policy.Name(),
		books: Totals{
			ClusterCost:        make([]units.Money, nc),
			ClusterEnergy:      make([]units.Energy, nc),
			PeakRate:           make([]float64, nc),
			MeanUtilizationSum: make([]float64, nc),
			OverloadSec:        make([]float64, nc),
		},
	}

	// Resolve per-cluster hourly price series once.
	prices, err := ClusterPrices(sc.Fleet, sc.Market)
	if err != nil {
		return nil, err
	}
	e.prices = prices

	// 95/5 constraint state.
	if sc.SoftCaps != nil {
		e.constraints = make([]*billing.Constraint, nc)
		for c := range e.constraints {
			con, err := billing.NewConstraint(sc.SoftCaps[c], sc.Steps)
			if err != nil {
				return nil, err
			}
			e.constraints[c] = con
		}
		var err error
		if e.room, e.roomTotal, err = burstRoom(sc.Fleet, sc.SoftCaps); err != nil {
			return nil, err
		}
	}
	// Burst gating: SelfGate unless the scenario externalizes the
	// decision, in which case every token is also booked per cluster.
	// validate() guarantees SoftCaps (hence constraints) whenever a gate
	// is configured.
	e.gate = SelfGate{}
	if sc.BurstGate != nil {
		e.gate = sc.BurstGate
		e.leases = make([]*billing.LeaseLedger, nc)
		for c := range e.leases {
			e.leases[c] = new(billing.LeaseLedger)
		}
		e.leaseGranted = make([]bool, nc)
	}

	// Battery and demand-charge state. Both stay nil for storage-free,
	// energy-only scenarios so those runs take the exact code path (and
	// produce the exact results) they did before this subsystem existed.
	if sc.Storage != nil {
		e.batteries = make([]*storage.State, nc)
		for c := range e.batteries {
			e.batteries[c] = storage.NewState(sc.Storage.Batteries[c])
		}
		e.dispatch = sc.Storage.Policy
		e.dispatchName = sc.Storage.Policy.Name()
		if sc.Storage.RoutingAware {
			if pc, ok := e.dispatch.(storage.PriceCapper); ok {
				e.priceCapper = pc
				e.priceCaps = make([]float64, nc)
			}
		}
	}
	if sc.DemandChargePerKW > 0 {
		e.demandMeters = make([]*billing.DemandMeter, nc)
		for c := range e.demandMeters {
			e.demandMeters[c] = new(billing.DemandMeter)
		}
	}

	// Deferrable (batch) class. Everything stays nil for batch-free
	// scenarios so those runs keep their exact pre-batch code path.
	if sc.Batch != nil {
		var siblings [][]int
		if sc.Batch.Migrate {
			shr, ok := sc.Policy.(routing.Sharder)
			if !ok {
				return nil, fmt.Errorf("sim: batch migration needs a policy with routing candidates; %s has none", sc.Policy.Name())
			}
			part, err := PartitionByRouting(shr, sc.Fleet)
			if err != nil {
				return nil, err
			}
			siblings = make([][]int, nc)
			for _, members := range part.Clusters {
				for _, c := range members {
					for _, t := range members {
						if t != c {
							siblings[c] = append(siblings[c], t)
						}
					}
				}
			}
		}
		s, err := sched.NewScheduler(sc.Batch, nc, siblings)
		if err != nil {
			return nil, err
		}
		e.sched = s
		e.books.BatchServedKWh = make([]float64, nc)
		e.books.BatchShedKWh = make([]float64, nc)
		e.books.BatchDeferredKWh = make([]float64, nc)
		e.batchKW = make([]float64, nc)
		e.batchShedKWh = make([]float64, nc)
		e.headroomKW = make([]float64, nc)
	}

	if sc.Carbon != nil {
		e.books.ClusterCarbonKg = make([]float64, nc)
	}
	e.meters = make([]billing.Meter, nc)
	for c := range e.meters {
		e.meters[c].Reserve(sc.Steps)
	}
	e.distHists = make([]*stats.WeightedHistogram, nc)
	for c := range e.distHists {
		e.distHists[c] = newDistHist()
	}
	e.assignBuf = make([]float64, ns*nc)
	e.assign = make([][]float64, ns)
	e.distBin = make([][]int, ns)
	for s := range e.assign {
		e.assign[s] = e.assignBuf[s*nc : (s+1)*nc : (s+1)*nc]
		e.distBin[s] = make([]int, nc)
		for c, d := range sc.Fleet.DistanceKm[s] {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				// No bin: Step falls back to Add, which tallies the
				// weight as non-finite exactly as before.
				e.distBin[s][c] = -1
				continue
			}
			e.distBin[s][c] = e.distHists[c].BinIndex(d)
		}
	}
	e.ctx = &routing.Context{
		Demand:         make([]float64, ns),
		DecisionPrices: make([]float64, nc),
		Room:           make([]float64, nc),
		BurstRoom:      make([]float64, nc),
		Placed:         make([]routing.Cell, 0, ns*nc),
	}
	e.loads = make([]float64, nc)
	e.gridWh = make([]units.Energy, nc)
	e.capacities = make([]float64, nc)
	e.powerEval = make([]energy.Evaluator, nc)
	for c, cl := range sc.Fleet.Clusters {
		e.capacities[c] = float64(cl.Capacity)
		e.powerEval[c] = sc.Energy.Evaluator(cl.Servers)
	}
	return e, nil
}

// Distance histogram geometry: 0–5500 km at 5 km resolution. One shared
// definition so the per-cluster histograms, the fleet-order fold, and the
// checkpoint restore path can never drift apart.
const (
	distHistMaxKm = 5500
	distHistBins  = 1100
)

// newDistHist builds one distance histogram with the engine geometry.
func newDistHist() *stats.WeightedHistogram {
	return stats.NewWeightedHistogram(0, distHistMaxKm, distHistBins)
}

// distTotal folds the per-cluster distance histograms into the fleet
// distribution, always in fleet order. The fold is a fixed-order pairwise
// merge over bit-identical per-cluster parts, so a merged shard fleet
// derives the same mean/p99 bits as the joint engine.
func (e *Engine) distTotal() (*stats.WeightedHistogram, error) {
	m := newDistHist()
	for c, h := range e.distHists {
		if err := m.Merge(h); err != nil {
			return nil, fmt.Errorf("sim: cluster %s distance histogram: %w", e.sc.Fleet.Clusters[c].Code, err)
		}
	}
	return m, nil
}

// PriceSeries returns the per-cluster real-time price series resolved from
// the scenario's market (fleet order). Batch Run builds its lookups from
// these; online callers use them to seed a feed or clamp decision times.
func (e *Engine) PriceSeries() []*timeseries.Series { return e.prices }

// Fleet returns the scenario's fleet.
func (e *Engine) Fleet() *cluster.Fleet { return e.sc.Fleet }

// StepSize returns the scenario's interval length.
func (e *Engine) StepSize() time.Duration { return e.sc.Step }

// Start returns the scenario's first interval instant.
func (e *Engine) Start() time.Time { return e.sc.Start }

// ReactionDelay returns the scenario's configured routing reaction delay.
func (e *Engine) ReactionDelay() time.Duration { return e.sc.ReactionDelay }

// StepsRun returns the number of intervals advanced so far.
func (e *Engine) StepsRun() int { return e.stepsRun }

// Next returns the instant the next Step is expected to cover:
// Start + StepsRun·Step.
func (e *Engine) Next() time.Time {
	return e.sc.Start.Add(time.Duration(e.stepsRun) * e.sc.Step)
}

// Step advances the engine through the interval starting at `at`: the
// policy allocates demand onto clusters under the 95/5 room tiers, every
// cluster's grid draw is metered and billed at prices.Bill, batteries
// dispatch, and the distance histogram absorbs the assignment. Inputs are
// copied, never retained.
//
// Step is the route half then the bill half of the interval, on the
// caller's goroutine; Run overlaps the two halves across steps.
func (e *Engine) Step(at time.Time, prices StepPrices, demand []float64) error {
	step := e.stepsRun
	if err := e.route(at, prices, demand); err != nil {
		return err
	}
	e.bill(&stepRecord{at: at, step: step, loads: e.loads, bill: prices.Bill, decision: prices.Decision, carbon: prices.Carbon})
	return nil
}

// stepRecord is what the bill half of one routed step reads: the
// interval, its step index, the per-cluster loads routing placed, and the
// step's prices. Nothing in it is engine state, so a step can be billed
// while later steps route.
type stepRecord struct {
	at    time.Time
	step  int       // the step index, the cursor before route advanced it
	loads []float64 // per-cluster rate routed (hits/s)
	bill  []float64 // billing prices
	// decision is the uncapped decision signal, read only by the batch
	// scheduler's gate; carbon the intensities, read only when the
	// scenario meters carbon.
	decision []float64
	carbon   []float64
}

// route is the half of Step that a later step's routing reads: input
// checks and storage price caps, the room tiers and burst gate, Allocate,
// one pass over the placed cells summing loads and feeding the distance
// histograms, the 95/5 commits and lease booking, and the step cursor. It
// reads no state the bill half writes, except the battery charge behind
// storage price caps; Run steps inline when those are on.
func (e *Engine) route(at time.Time, prices StepPrices, demand []float64) error {
	if e.res != nil {
		return errors.New("sim: engine already finalized")
	}
	if len(demand) != e.ns {
		return fmt.Errorf("sim: demand source returned %d states, want %d", len(demand), e.ns)
	}
	if err := CheckDemand(demand); err != nil {
		return err
	}
	sc := &e.sc
	ctx := e.ctx
	ctx.At = at
	copy(ctx.Demand, demand)

	// Decision signal (delay already applied by the caller).
	if len(prices.Decision) != e.nc {
		return fmt.Errorf("sim: %d decision prices for %d clusters", len(prices.Decision), e.nc)
	}
	copy(ctx.DecisionPrices, prices.Decision)
	// Billing prices for this instant (always real-time dollars).
	if len(prices.Bill) != e.nc {
		return fmt.Errorf("sim: %d billing prices for %d clusters", len(prices.Bill), e.nc)
	}
	if sc.Carbon != nil && len(prices.Carbon) != e.nc {
		return fmt.Errorf("sim: %d carbon intensities for %d clusters", len(prices.Carbon), e.nc)
	}
	// Storage-aware signal: a charged battery caps how expensive its
	// cluster can look to the router (the battery absorbs anything
	// above its discharge threshold).
	if e.priceCapper != nil {
		for c := range e.priceCaps {
			e.priceCaps[c] = e.priceCapper.PriceCap(c, e.batteries[c])
		}
		routing.ApplyPriceCaps(ctx.DecisionPrices, e.priceCaps)
	}

	// Room tiers. Burst room above the 95/5 caps is unlocked only when
	// this interval is infeasible under the caps alone — reserving each
	// cluster's 5% burst budget for the true peak intervals rather than
	// letting the router spend it chasing cheap prices.
	if e.constraints != nil {
		totalDemand := SumDemand(ctx.Demand)
		copy(ctx.Room, e.room)
		clear(ctx.BurstRoom)
		clear(e.leaseGranted)
		open, err := e.gate.GateOpen(e.stepsRun, totalDemand, e.roomTotal)
		if err != nil {
			return fmt.Errorf("sim: burst gate at %v: %w", at, err)
		}
		if open {
			for c := range sc.Fleet.Clusters {
				if e.constraints[c].CanBurst() {
					ctx.BurstRoom[c] = e.capacities[c] - ctx.Room[c]
					if e.leases != nil {
						e.leases[c].Grant()
						e.leaseGranted[c] = true
					}
				}
			}
		}
	} else {
		for c := range sc.Fleet.Clusters {
			ctx.Room[c] = e.capacities[c]
			ctx.BurstRoom[c] = 0
		}
	}

	// Allocate.
	for i := range e.assignBuf {
		e.assignBuf[i] = 0
	}
	if err := sc.Policy.Allocate(ctx, e.assign); err != nil {
		return err
	}

	// Sum the cells the policy placed (routing.Policy's Placed contract):
	// each cluster's cells come in ascending state order, so every
	// per-cluster sum gets the operands a dense scan of assign would feed
	// it, in the same order.
	for c := range e.loads {
		e.loads[c] = 0
	}
	stepHours := e.stepHours
	for _, cell := range ctx.Placed {
		s, c := cell.State, cell.Cluster
		rate := e.assign[s][c]
		e.loads[c] += rate
		if b := e.distBin[s][c]; b >= 0 {
			e.distHists[c].AddToBin(b, sc.Fleet.DistanceKm[s][c], rate*stepHours)
		} else {
			e.distHists[c].Add(sc.Fleet.DistanceKm[s][c], rate*stepHours)
		}
	}
	if e.constraints != nil {
		for c, con := range e.constraints {
			load := e.loads[c]
			if err := con.Commit(load); err != nil {
				return fmt.Errorf("sim: cluster %s at %v: %w", sc.Fleet.Clusters[c].Code, at, err)
			}
			// Book the step's burst token: used by an over-cap interval,
			// expired (reclaimed at the step boundary) otherwise.
			if e.leases != nil && e.leaseGranted[c] {
				if con.Over(load) {
					e.leases[c].Use()
				} else {
					e.leases[c].Expire()
				}
			}
		}
	}
	e.stepsRun++
	e.lastAt = at
	return nil
}

// bill is the half of Step no later route reads: the meter samples, peak
// rates, overload and utilization, the power curve, battery dispatch, the
// batch scheduler, the bill, the demand meters and the carbon ledger. It
// reads the step from r alone, never the route half's state, and bills
// steps in order, so billing step k while step k+1 routes gives every
// ledger it writes the operations Step would, in the same order.
func (e *Engine) bill(r *stepRecord) {
	sc := &e.sc
	books := &e.books
	stepHours := e.stepHours
	for c := range sc.Fleet.Clusters {
		load := r.loads[c]
		capacity := e.capacities[c]
		e.meters[c].Record(load)
		if load > books.PeakRate[c] {
			books.PeakRate[c] = load
		}
		// Epsilon absorbs float residue from the allocator's room
		// arithmetic; genuine overloads are orders of magnitude larger.
		if over := load - capacity; over > 1e-6+1e-9*capacity {
			books.OverloadSec[c] += over * sc.Step.Seconds()
		}
		// Cluster.Utilization over the cached float capacity: the same
		// division, the same clamps.
		u := 0.0
		if capacity > 0 {
			u = load / capacity
			if u < 0 {
				u = 0
			} else if u > 1 {
				u = 1
			}
		}
		books.MeanUtilizationSum[c] += u
		en := e.powerEval[c].Energy(u, stepHours)
		// Grid draw = IT draw + battery charging − battery discharging;
		// everything downstream (bill, demand meter, carbon ledger) is
		// metered at the grid interconnect.
		grid := en
		if e.batteries != nil {
			b := e.batteries[c]
			itKW := en.KilowattHours() / stepHours
			if act := e.dispatch.Action(c, r.bill[c], itKW, b); act > 0 {
				grid += units.Energy(b.Charge(act, stepHours) * 1000)
			} else if act < 0 {
				want := -act
				if want > itKW {
					want = itKW // no grid export
				}
				grid -= units.Energy(b.Discharge(want, stepHours) * 1000)
			}
		}
		e.gridWh[c] = grid
	}

	// Deferrable (batch) class: dispatch sits between metering and
	// billing so batch draw is billed and demand-metered at whichever
	// cluster serves it, on top of that cluster's interactive draw.
	if e.sched != nil {
		e.sched.EnqueueArrivals(r.step)
		var headroom []float64
		if e.sched.PeakGuarded() && e.demandMeters != nil {
			for c := range e.headroomKW {
				h := e.demandMeters[c].MonthPeak(r.at) - e.gridWh[c].KilowattHours()/stepHours
				if h < 0 {
					h = 0
				}
				e.headroomKW[c] = h
			}
			headroom = e.headroomKW
		}
		// The gate reads the same lagged decision prices the router saw,
		// before any storage price caps: batch deferral is its own lever.
		e.sched.Dispatch(r.step, stepHours, r.decision, headroom, e.batchKW, e.batchShedKWh)
		e.sched.Compact()
		for c := range e.batchKW {
			if kwh := e.batchKW[c] * stepHours; kwh > 0 {
				e.gridWh[c] += units.Energy(kwh * 1000)
				books.BatchServedKWh[c] += kwh
			}
			books.BatchShedKWh[c] += e.batchShedKWh[c]
			books.BatchDeferredKWh[c] += e.sched.QueuedKWh(c)
		}
	}

	// Bill. Split from the metering loop above only so batch dispatch can
	// run in between; per-cluster arithmetic is untouched, so batch-free
	// scenarios produce bit-identical results to the single-loop form.
	for c := range sc.Fleet.Clusters {
		grid := e.gridWh[c]
		cost := grid.Cost(units.Price(r.bill[c]))
		books.ClusterEnergy[c] += grid
		books.ClusterCost[c] += cost
		if e.demandMeters != nil {
			e.demandMeters[c].Record(r.at, grid.KilowattHours()/stepHours)
		}
		if sc.Carbon != nil {
			books.ClusterCarbonKg[c] += grid.KilowattHours() * r.carbon[c] / 1000
		}
	}
}

// QueueJobs enqueues externally arriving batch jobs — the daemon ingest
// path. Deadlines are absolute step indices and must lie beyond the
// current step cursor (a job must have at least one interval to run in).
// All jobs are validated before any is enqueued; unlike Step, this path
// may allocate as queues grow.
func (e *Engine) QueueJobs(jobs []sched.Job) error {
	if e.res != nil {
		return errors.New("sim: engine already finalized")
	}
	if e.sched == nil {
		return errors.New("sim: scenario configures no batch class")
	}
	for i, j := range jobs {
		if err := CheckJob(j, e.nc, e.stepsRun); err != nil {
			return fmt.Errorf("sim: batch job %d %w", i, err)
		}
	}
	for _, j := range jobs {
		e.sched.Push(j.Cluster, sched.QueuedJob{
			Deadline:    j.Deadline,
			TotalKWh:    j.EnergyKWh,
			MinFraction: j.MinFraction,
		})
	}
	return nil
}

// MaxMagnitude bounds every value admitted from outside the world: a
// demand rate (hits/s, CheckDemand), a job's energy (kWh, CheckJob) and a
// posted price ($/MWh, either sign, at the daemons' price admission).
// Finite values alone do not keep the ledgers finite: one row of 1e308
// hits/s in every state, or one hourly step billed at 1e308 $/MWh, sums
// past math.MaxFloat64 to +Inf, which no JSON status can carry. Bounded
// values do, over any horizon an int64-nanosecond clock can key: such a
// clock keys at most 2^63 ≈ 9.2e18 instants, so a run steps at most that
// often, and every per-cluster ledger grows per step by a product of
// admitted values, counts (steps, jobs) and the world's own constants
// (server counts, power curves, the step length). With each admitted value
// at most 1e15 and each count at most 2^63, a product of four such factors
// stays below 1e76 times the world's constants, over 230 orders of
// magnitude below math.MaxFloat64. 1e15 is also far past any real rate,
// energy or price.
const MaxMagnitude = 1e15

// CheckDemand is the admission rule for one interval's per-state demand
// vector (hits/s): every rate finite, ≥ 0 and at most MaxMagnitude. Step
// applies it before touching any state. The shard coordinator applies it
// to every full row before fan-out, so a row one shard would refuse
// reaches none.
func CheckDemand(rates []float64) error {
	for s, r := range rates {
		// One test per bound: NaN fails both, −x the first, +Inf and
		// anything past MaxMagnitude the second.
		if !(r >= 0 && r <= MaxMagnitude) {
			if r > MaxMagnitude && !math.IsInf(r, 1) {
				return fmt.Errorf("sim: state %d demand %v hits/s, past the %v bound", s, r, MaxMagnitude)
			}
			return fmt.Errorf("sim: state %d demand %v hits/s, want finite and ≥ 0", s, r)
		}
	}
	return nil
}

// CheckJob is the admission rule for one externally arriving batch job
// in a fleet of nc clusters whose next step is cursor: a home cluster in
// range, a deadline beyond the cursor (at least one interval to run in),
// a finite positive energy of at most MaxMagnitude, and a
// partial-execution floor in [0, 1].
// QueueJobs applies it to every job before enqueuing any. The shard
// coordinator applies it before fan-out, so a job no shard would accept
// is refused before any shard commits its row. The error reads as a
// predicate ("targets cluster 9 of 5") for the caller to prefix.
func CheckJob(j sched.Job, nc, cursor int) error {
	switch {
	case j.Cluster < 0 || j.Cluster >= nc:
		return fmt.Errorf("targets cluster %d of %d", j.Cluster, nc)
	case j.Deadline <= cursor:
		return fmt.Errorf("has deadline %d at or behind step cursor %d", j.Deadline, cursor)
	case math.IsNaN(j.EnergyKWh) || math.IsInf(j.EnergyKWh, 0) || j.EnergyKWh <= 0:
		return fmt.Errorf("has energy %v kWh", j.EnergyKWh)
	case j.EnergyKWh > MaxMagnitude:
		return fmt.Errorf("has energy %v kWh, past the %v bound", j.EnergyKWh, MaxMagnitude)
	case math.IsNaN(j.MinFraction) || j.MinFraction < 0 || j.MinFraction > 1:
		return fmt.Errorf("has min fraction %v", j.MinFraction)
	}
	return nil
}

// Finalize closes the books — billable 95th percentiles, burst-budget
// verification, demand charges, final battery state, the distance
// distribution — and returns the Result. The fleet figures are the fold
// Snapshot carries at the same cursor, and no book changes, so a snapshot
// taken after Finalize equals one taken before it. Finalize is
// idempotent; Step returns an error after the first call.
func (e *Engine) Finalize() (*Result, error) {
	if e.res != nil {
		return e.res, nil
	}
	if e.stepsRun == 0 {
		return nil, errors.New("sim: finalize before any step")
	}
	snap := e.Snapshot()
	res := &Result{
		Policy:                e.policyName,
		Steps:                 e.stepsRun,
		TotalCost:             snap.TotalCost,
		TotalEnergy:           snap.TotalEnergy,
		ClusterCost:           snap.ClusterCost,
		ClusterEnergy:         slices.Clone(e.books.ClusterEnergy),
		BillableP95:           make([]float64, e.nc),
		PeakRate:              snap.PeakRate,
		MeanUtilization:       make([]float64, e.nc),
		OverloadHitSeconds:    snap.OverloadHitSeconds,
		TotalCarbonKg:         snap.TotalCarbonKg,
		ClusterCarbonKg:       slices.Clone(e.books.ClusterCarbonKg),
		EnergyCost:            snap.EnergyCost,
		DemandCharge:          snap.DemandCharge,
		ClusterDemandCharge:   e.demandCharges(),
		PeakGridKW:            snap.PeakGridKW,
		StorageBoughtKWh:      snap.StorageBoughtKWh,
		StorageServedKWh:      snap.StorageServedKWh,
		FinalSoCKWh:           snap.SoCKWh,
		BatchServedKWh:        snap.BatchServedKWh,
		BatchShedKWh:          snap.BatchShedKWh,
		BatchQueuedKWh:        snap.BatchQueuedTotalKWh,
		BatchDeferredKWhSteps: snap.BatchDeferredKWhSteps,
	}
	var buf []float64
	for c := range e.meters {
		p95, grown, err := e.meters[c].Percentile95Buf(buf)
		if err != nil {
			return nil, err
		}
		buf = grown
		res.BillableP95[c] = p95
		res.MeanUtilization[c] = e.books.MeanUtilizationSum[c] / float64(e.stepsRun)
		if e.constraints != nil {
			if res.BurstsUsed == nil {
				res.BurstsUsed = make([]int, e.nc)
			}
			res.BurstsUsed[c] = e.constraints[c].BurstsUsed()
			if err := e.constraints[c].Verify(); err != nil {
				return nil, err
			}
		}
	}
	for c, ch := range res.ClusterDemandCharge {
		res.ClusterCost[c] += ch
	}
	dist, err := e.distTotal()
	if err != nil {
		return nil, err
	}
	res.MeanDistanceKm = dist.Mean()
	res.P99DistanceKm = dist.Quantile(0.99)
	e.res = res
	return res, nil
}

// demandCharges returns each cluster's demand charge if every open month
// ended now, in fleet order; nil without a tariff.
func (e *Engine) demandCharges() []units.Money {
	if e.demandMeters == nil {
		return nil
	}
	return each(e.demandMeters, func(m *billing.DemandMeter) units.Money { return m.Charge(e.sc.DemandChargePerKW) })
}

// Bill is the fleet-wide bill and ledgers foldBill derives from
// per-cluster values.
type Bill struct {
	TotalCost   units.Money  // the full bill: energy plus demand charges
	TotalEnergy units.Energy // grid energy drawn
	// EnergyCost and DemandCharge split TotalCost exactly as in Result;
	// a snapshot's demand charge is the bill if every open month ended now.
	EnergyCost   units.Money
	DemandCharge units.Money

	OverloadHitSeconds float64 // demand-beyond-capacity seconds
	StorageBoughtKWh   float64 // grid energy bought into batteries
	StorageServedKWh   float64 // load energy served from batteries
	TotalCarbonKg      float64 // emissions (zero unless carbon is metered)

	// Batch (deferrable) class ledgers, fleet-wide; zero unless the
	// scenario configures the class.
	BatchServedKWh        float64 // batch energy served
	BatchShedKWh          float64 // batch energy abandoned at deadlines
	BatchDeferredKWhSteps float64 // queue residence integral (kWh·steps)
	BatchQueuedTotalKWh   float64 // unserved queued energy right now

	// BurstTokens sums the clusters' burst-token ledgers.
	BurstTokens billing.LeaseLedgerState
}

// foldBill derives the fleet-wide figures from per-cluster values, each
// in fleet order: the books, storage totals included; each cluster's
// demand charge (nil without a tariff); its queued batch energy; and its
// burst-token ledger. It reads nothing else, so per-cluster values
// scattered from shards into fleet positions fold to the joint run's
// figures bit for bit. The demand charge comes last, cluster by cluster,
// each charge added to both DemandCharge and TotalCost.
func foldBill(books *Totals, charges []units.Money, queuedKWh []float64, leases []billing.LeaseLedgerState) Bill {
	var b Bill
	for c := range books.ClusterCost {
		b.TotalCost += books.ClusterCost[c]
		b.TotalEnergy += books.ClusterEnergy[c]
		b.OverloadHitSeconds += books.OverloadSec[c]
	}
	for c := range books.StorageBoughtKWh {
		b.StorageBoughtKWh += books.StorageBoughtKWh[c]
		b.StorageServedKWh += books.StorageServedKWh[c]
	}
	for _, kg := range books.ClusterCarbonKg {
		b.TotalCarbonKg += kg
	}
	for c := range books.BatchServedKWh {
		b.BatchServedKWh += books.BatchServedKWh[c]
		b.BatchShedKWh += books.BatchShedKWh[c]
		b.BatchDeferredKWhSteps += books.BatchDeferredKWh[c]
	}
	for _, kwh := range queuedKWh {
		b.BatchQueuedTotalKWh += kwh
	}
	for _, l := range leases {
		b.BurstTokens.TokensGranted += l.TokensGranted
		b.BurstTokens.TokensUsed += l.TokensUsed
		b.BurstTokens.TokensExpired += l.TokensExpired
	}
	b.EnergyCost = b.TotalCost
	for _, ch := range charges {
		b.DemandCharge += ch
		b.TotalCost += ch
	}
	return b
}

// Snapshot is a cheap, copy-safe view of the engine's running state for
// status endpoints: the bill so far, the last interval's per-cluster
// rates, and battery/demand-charge state when those subsystems are active.
type Snapshot struct {
	Policy string // routing policy name
	// StoragePolicy names the battery dispatch policy ("" when the
	// scenario configures no storage); /v1/status and /v1/world report it.
	StoragePolicy string
	Steps         int // intervals advanced so far
	// At is the instant of the last advanced interval (zero before the
	// first Step); Next is the instant the next Step should cover.
	At   time.Time
	Next time.Time

	// Bill is the fleet's bill so far, folded as Finalize would fold it at
	// this cursor.
	Bill

	ClusterCost []units.Money // running per-cluster energy bill, fleet order
	// ClusterRate is the last interval's per-cluster assigned rate.
	ClusterRate []float64
	PeakRate    []float64 // per-cluster maximum assigned rate so far

	PeakGridKW []float64 // nil unless a demand-charge tariff is metered
	SoCKWh     []float64 // nil unless storage is configured
	// BatchQueuedKWh is each cluster's unserved queued batch energy right
	// now; nil unless the scenario configures the batch class.
	BatchQueuedKWh []float64

	// BurstLeases books the coordinated burst-token traffic per cluster,
	// fleet order; nil unless the scenario configures a BurstGate.
	BurstLeases []billing.LeaseLedgerState
}

// Snapshot captures the running state into a fresh Snapshot, which
// shares nothing with the engine. It never mutates the engine and is
// valid before, during, and after Finalize.
func (e *Engine) Snapshot() *Snapshot {
	snap := &Snapshot{
		Policy:        e.policyName,
		StoragePolicy: e.dispatchName,
		Steps:         e.stepsRun,
		At:            e.lastAt,
		Next:          e.Next(),
		ClusterCost:   slices.Clone(e.books.ClusterCost),
		ClusterRate:   slices.Clone(e.loads),
		PeakRate:      slices.Clone(e.books.PeakRate),
	}
	// The fold reads the books with the storage totals each battery keeps.
	books := e.books
	if e.demandMeters != nil {
		snap.PeakGridKW = each(e.demandMeters, (*billing.DemandMeter).PeakKW)
	}
	if e.batteries != nil {
		snap.SoCKWh = each(e.batteries, (*storage.State).SoCKWh)
		books.StorageBoughtKWh = each(e.batteries, (*storage.State).BoughtKWh)
		books.StorageServedKWh = each(e.batteries, (*storage.State).ServedKWh)
	}
	if e.sched != nil {
		snap.BatchQueuedKWh = make([]float64, e.nc)
		for c := range snap.BatchQueuedKWh {
			snap.BatchQueuedKWh[c] = e.sched.QueuedKWh(c)
		}
	}
	if e.leases != nil {
		snap.BurstLeases = each(e.leases, (*billing.LeaseLedger).State)
	}
	snap.Bill = foldBill(&books, e.demandCharges(), snap.BatchQueuedKWh, snap.BurstLeases)
	return snap
}

// Assignments copies the last interval's full state×cluster assignment
// matrix into dst (allocating when dst is nil or mis-sized) and returns it.
func (e *Engine) Assignments(dst [][]float64) [][]float64 {
	if len(dst) != e.ns {
		dst = make([][]float64, e.ns)
	}
	for s := range e.assign {
		if len(dst[s]) != e.nc {
			dst[s] = make([]float64, e.nc)
		}
		copy(dst[s], e.assign[s])
	}
	return dst
}
