// Package sim is the discrete-time simulation engine of §6: it steps
// through a workload, lets a routing policy allocate traffic to clusters at
// each step (seeing prices delayed by the configured reaction time), models
// each cluster's power draw with the §5.1 energy model, and prices the
// energy with the market's hourly real-time prices.
//
// Costs are metered per cluster (Fig 19), client-server distance is metered
// as a hit-weighted distribution (Fig 17), and per-cluster 95/5 constraints
// derived from a baseline run can be enforced (Fig 15, 16, 18).
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"powerroute/internal/cluster"
	"powerroute/internal/energy"
	"powerroute/internal/market"
	"powerroute/internal/routing"
	"powerroute/internal/sched"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
	"powerroute/internal/traffic"
	"powerroute/internal/units"
)

// DemandSource yields per-state demand at an instant. traffic.LongRun
// satisfies it directly; TraceDemand adapts a 5-minute trace.
type DemandSource interface {
	Rates(at time.Time, dst []float64) []float64
}

// DefaultReactionDelay is the paper's conservative assumption: "there was a
// one hour delay between the market setting new prices and the system
// propagating new routes" (§6.1).
const DefaultReactionDelay = time.Hour

// Scenario describes one simulation run. Every field is treated as
// immutable once an Engine is built from it: the world hash
// (Engine.WorldHash) digests the fleet, prices, policy name, tariffs,
// and storage configuration, and checkpoints refuse to restore into a
// scenario whose hash differs. Runs are deterministic functions of the
// scenario — same scenario, same Result, bit for bit.
type Scenario struct {
	Fleet  *cluster.Fleet  // cluster geometry and client states (fleet order defines every per-cluster vector)
	Policy routing.Policy  // routing policy; its Name() is echoed in results and checkpoints
	Energy energy.Model    // §5.1 power model mapping utilization to grid draw
	Market *market.Dataset // per-hub hourly real-time price history (the billing signal)
	Demand DemandSource    // per-state demand rates for each interval

	Start time.Time     // instant the first interval covers
	Steps int           // horizon length in intervals
	Step  time.Duration // interval length; must tile the market hour exactly

	// ReactionDelay lags the prices the router sees behind the prices the
	// bill is computed with (§6.4). Zero means immediate reaction; the
	// paper's default is one hour.
	ReactionDelay time.Duration

	// SoftCaps, when non-nil, enforces per-cluster 95/5 constraints: the
	// cluster's rate may exceed SoftCaps[c] in at most 5% of intervals.
	// Derive the caps from a baseline run (DeriveCaps).
	SoftCaps []float64

	// BurstGate, when non-nil, puts the 95/5 burst gate under coordinated
	// (fleet-wide) control: instead of comparing its own total demand
	// against its own total room, the engine asks the gate whether this
	// step's fleet-wide demand unlocks burst headroom, and books every
	// granted/used/expired burst token in per-cluster lease ledgers that
	// ride in checkpoints. SelfGate reproduces the local decision (for
	// whole-world engines that must stay byte-comparable with a merged
	// shard fleet); a LeaseStore holds the bit a coordinator sends with
	// each demand row. Requires SoftCaps. Nil keeps the exact engine-local
	// code path with no ledgers.
	BurstGate BurstGate

	// DecisionSeries, when non-nil, overrides the per-cluster signal the
	// router optimizes (still subject to ReactionDelay). The bill is
	// always computed from real-time dollar prices; this hook lets a
	// carbon-aware router minimize gCO₂ while the ledger stays in dollars
	// (§8 "Environmental Cost").
	DecisionSeries []*timeseries.Series

	// Carbon, when non-nil, meters per-cluster emissions using these
	// hourly intensity series (gCO₂/kWh).
	Carbon []*timeseries.Series

	// Storage, when non-nil, installs a battery behind each cluster's grid
	// meter. Each step the dispatch policy sees the cluster's current
	// real-time price (site controllers react locally, so no reaction
	// delay) and the grid draw becomes IT draw + charging − discharging;
	// discharge is capped at the IT draw so the meter never runs backwards.
	// Zero-capacity batteries reproduce a storage-free run exactly.
	Storage *storage.Config

	// DemandChargePerKW, when positive, adds a demand-charge tariff on top
	// of energy billing: each cluster pays its monthly peak grid draw (kW)
	// times this rate ($/kW-month). Zero keeps pure energy billing.
	DemandChargePerKW float64

	// Batch, when non-nil, adds the deferrable traffic class: batch jobs
	// with deadlines and partial-execution floors held in per-cluster
	// scheduler queues, deferred past price spikes and demand-charge
	// peaks, and (optionally) migrated across the routing candidates.
	// Nil keeps the exact interactive-only code path.
	Batch *sched.Config

	// Shard identity, set by Scenario.Shard: the parent world's hash and
	// this shard's cluster/state positions in the parent fleet. Zero for
	// ordinary (whole-world) scenarios. Checkpoints echo these so
	// MergeCheckpoints can scatter per-cluster state back into fleet
	// positions and verify every part came from the same parent world.
	shardOf       string
	shardClusters []int
	shardStates   []int
}

func (sc *Scenario) validate() error {
	if sc.Fleet == nil || sc.Policy == nil || sc.Market == nil || sc.Demand == nil {
		return errors.New("sim: scenario missing fleet, policy, market, or demand")
	}
	if err := sc.Energy.Validate(); err != nil {
		return err
	}
	if sc.Steps <= 0 {
		return errors.New("sim: non-positive step count")
	}
	if sc.Step <= 0 {
		return errors.New("sim: non-positive step duration")
	}
	// Market prices are hourly; a step that does not tile the hour (or a
	// multi-hour step that is not a whole number of hours) drifts across
	// price boundaries, so each interval would silently be billed at the
	// price of whichever hour its start happens to land in.
	if sc.Step < time.Hour && time.Hour%sc.Step != 0 {
		return fmt.Errorf("sim: step %v does not divide the market hour", sc.Step)
	}
	if sc.Step > time.Hour && sc.Step%time.Hour != 0 {
		return fmt.Errorf("sim: step %v is not a whole number of market hours", sc.Step)
	}
	if sc.ReactionDelay < 0 {
		return errors.New("sim: negative reaction delay")
	}
	if sc.SoftCaps != nil && len(sc.SoftCaps) != len(sc.Fleet.Clusters) {
		return fmt.Errorf("sim: %d soft caps for %d clusters", len(sc.SoftCaps), len(sc.Fleet.Clusters))
	}
	if sc.BurstGate != nil && sc.SoftCaps == nil {
		return errors.New("sim: burst gate configured without soft caps")
	}
	if sc.DecisionSeries != nil && len(sc.DecisionSeries) != len(sc.Fleet.Clusters) {
		return fmt.Errorf("sim: %d decision series for %d clusters", len(sc.DecisionSeries), len(sc.Fleet.Clusters))
	}
	if sc.Carbon != nil && len(sc.Carbon) != len(sc.Fleet.Clusters) {
		return fmt.Errorf("sim: %d carbon series for %d clusters", len(sc.Carbon), len(sc.Fleet.Clusters))
	}
	if sc.Storage != nil {
		if err := sc.Storage.Validate(len(sc.Fleet.Clusters)); err != nil {
			return err
		}
	}
	// NaN would slip past a plain sign check and silently disable the
	// tariff at the > 0 metering gate; +Inf would bill infinite charges.
	if !(sc.DemandChargePerKW >= 0) || math.IsInf(sc.DemandChargePerKW, 1) {
		return errors.New("sim: demand charge rate must be non-negative and finite")
	}
	if sc.Batch != nil {
		if err := sc.Batch.Validate(len(sc.Fleet.Clusters)); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of a run. Per-cluster vectors are in fleet
// order; fleet-wide figures are derived from them in fleet order at
// Finalize time (never accumulated across clusters), which is what lets
// a shard-merged run reproduce the joint run's totals bit for bit.
type Result struct {
	Policy string // routing policy name (configuration echo)
	Steps  int    // intervals actually run

	TotalCost   units.Money  // the full bill: energy plus any demand charge
	TotalEnergy units.Energy // total grid energy drawn

	ClusterCost   []units.Money  // per-cluster bill, demand charge included
	ClusterEnergy []units.Energy // per-cluster grid energy
	// BillableP95 is each cluster's 95th-percentile rate over the run: its
	// 95/5 bandwidth bill (§4).
	BillableP95 []float64
	// PeakRate is each cluster's maximum rate over the run.
	PeakRate []float64
	// MeanUtilization is each cluster's time-averaged utilization.
	MeanUtilization []float64

	// MeanDistanceKm and P99DistanceKm describe the hit-weighted
	// client-server distance distribution (Fig 17). The histogram is kept
	// per cluster and folded in fleet order at Finalize time, so like
	// every other figure they reproduce bit for bit across a shard merge.
	MeanDistanceKm float64
	P99DistanceKm  float64

	// OverloadHitSeconds accumulates demand assigned beyond physical
	// capacity (clamped in the power model). Should be ≈ 0 in healthy runs.
	OverloadHitSeconds float64

	// BurstsUsed is the number of over-cap intervals per cluster when 95/5
	// constraints were enforced.
	BurstsUsed []int

	// TotalCarbonKg and ClusterCarbonKg report emissions when the scenario
	// supplied carbon intensity series (§8 extension); zero and nil
	// otherwise.
	TotalCarbonKg   float64
	ClusterCarbonKg []float64

	// EnergyCost and DemandCharge split TotalCost under a demand-charge
	// tariff: TotalCost = EnergyCost + DemandCharge. Without a tariff,
	// EnergyCost equals TotalCost and DemandCharge is zero.
	// ClusterDemandCharge is the per-cluster tariff split (nil unless
	// metered).
	EnergyCost          units.Money
	DemandCharge        units.Money
	ClusterDemandCharge []units.Money
	// PeakGridKW is each cluster's maximum interval-average grid draw,
	// the demand-charge billing determinant (non-nil only when metered).
	PeakGridKW []float64

	// StorageBoughtKWh and StorageServedKWh total the grid energy bought
	// into batteries and the load energy they served; FinalSoCKWh is each
	// battery's remaining charge (non-nil only when storage is configured).
	StorageBoughtKWh float64
	StorageServedKWh float64
	FinalSoCKWh      []float64

	// Batch class ledgers, all zero unless the scenario configures it:
	// energy served, energy shed at expired deadlines, energy still queued
	// at finalize, and the queue residence integral (kWh·steps) — the
	// SLA-side axis of the deferral-vs-bill trade.
	BatchServedKWh        float64
	BatchShedKWh          float64
	BatchQueuedKWh        float64
	BatchDeferredKWhSteps float64
}

// SavingsVersus returns 1 − cost/base, the percentage-style savings of this
// run against a reference.
func (r *Result) SavingsVersus(base *Result) float64 {
	if base.TotalCost == 0 {
		return 0
	}
	return 1 - float64(r.TotalCost)/float64(base.TotalCost)
}

// NormalizedCost returns cost/base (Fig 16/18's y-axis).
func (r *Result) NormalizedCost(base *Result) float64 {
	if base.TotalCost == 0 {
		return 0
	}
	return float64(r.TotalCost) / float64(base.TotalCost)
}

// seriesLookup resolves one value per cluster at an instant. When every
// series shares one geometry — the common case: all hub price series come
// from the same hourly market — the sample index is computed once per
// instant instead of once per series, keeping the time arithmetic out of
// the per-cluster hot loop. Mismatched geometries fall back to Series.At.
type seriesLookup struct {
	series []*timeseries.Series
	start  time.Time
	step   time.Duration
	n      int
	shared bool
}

func newSeriesLookup(series []*timeseries.Series) seriesLookup {
	l := seriesLookup{series: series}
	if len(series) == 0 {
		return l
	}
	first := series[0]
	l.start, l.step, l.n = first.Start, first.Step, first.Len()
	l.shared = l.step > 0
	for _, s := range series[1:] {
		if !s.Start.Equal(l.start) || s.Step != l.step || s.Len() != l.n {
			l.shared = false
			break
		}
	}
	return l
}

// values fills dst[c] with series[c]'s value covering instant at.
func (l *seriesLookup) values(at time.Time, dst []float64) error {
	if l.shared {
		d := at.Sub(l.start)
		if d < 0 {
			return fmt.Errorf("timeseries: %v precedes series start %v", at, l.start)
		}
		i := int(d / l.step)
		if i >= l.n {
			return fmt.Errorf("timeseries: %v past series end %v", at, l.start.Add(time.Duration(l.n)*l.step))
		}
		for c, s := range l.series {
			dst[c] = s.Values[i]
		}
		return nil
	}
	for c, s := range l.series {
		v, err := s.At(at)
		if err != nil {
			return err
		}
		dst[c] = v
	}
	return nil
}

// Run executes the scenario as a batch: it looks up each interval's
// prices, demand, and carbon intensity from the scenario's series and
// advances an Engine through every interval. Each step's route half runs
// on the caller's goroutine; one helper goroutine, started and joined
// here, bills the routed steps behind it, runChunk steps per hand-off.
// Both halves are Step's own (route and bill), and the bill half reads
// only its step's record, so the Result is bit for bit that of a Step
// loop over the same inputs. With routing-aware storage price caps the
// next route reads the battery charge the bill half writes, and Run
// steps inline instead.
func Run(sc Scenario) (*Result, error) {
	eng, err := NewEngine(sc)
	if err != nil {
		return nil, err
	}
	in := newRunInputs(&sc, eng.PriceSeries())
	if eng.priceCapper != nil {
		err = runInline(eng, &in)
	} else {
		err = runOverlapped(eng, &in)
	}
	if err != nil {
		return nil, err
	}
	return eng.Finalize()
}

// runInputs looks up Run's per-interval inputs from the scenario's
// series.
type runInputs struct {
	sc                     *Scenario
	marketStart            time.Time
	bill, decision, carbon seriesLookup
	demand                 []float64
}

func newRunInputs(sc *Scenario, prices []*timeseries.Series) runInputs {
	signal := prices
	if sc.DecisionSeries != nil {
		signal = sc.DecisionSeries
	}
	in := runInputs{
		sc:          sc,
		marketStart: prices[0].Start,
		bill:        newSeriesLookup(prices),
		decision:    newSeriesLookup(signal),
	}
	if sc.Carbon != nil {
		in.carbon = newSeriesLookup(sc.Carbon)
	}
	return in
}

// lookup fills p with interval step's decision and billing prices (and
// carbon intensities when the scenario meters carbon), and returns the
// interval's instant and demand. The demand slice is reused by the next
// call.
func (in *runInputs) lookup(step int, p StepPrices) (time.Time, []float64, error) {
	sc := in.sc
	at := sc.Start.Add(time.Duration(step) * sc.Step)
	in.demand = sc.Demand.Rates(at, in.demand)

	// Decision signal: delayed, clamped to the start of market data.
	decisionAt := at.Add(-sc.ReactionDelay)
	if decisionAt.Before(in.marketStart) {
		decisionAt = in.marketStart
	}
	if err := in.decision.values(decisionAt, p.Decision); err != nil {
		return at, nil, fmt.Errorf("sim: decision signal at %v: %w", decisionAt, err)
	}
	// Billing prices for this instant (always real-time dollars).
	if err := in.bill.values(at, p.Bill); err != nil {
		return at, nil, fmt.Errorf("sim: billing price at %v: %w", at, err)
	}
	if sc.Carbon != nil {
		if err := in.carbon.values(at, p.Carbon); err != nil {
			return at, nil, fmt.Errorf("sim: carbon intensity at %v: %w", at, err)
		}
	}
	return at, in.demand, nil
}

// runInline advances eng one whole Step at a time.
func runInline(eng *Engine, in *runInputs) error {
	p := StepPrices{Decision: make([]float64, eng.nc), Bill: make([]float64, eng.nc)}
	if in.sc.Carbon != nil {
		p.Carbon = make([]float64, eng.nc)
	}
	for step := 0; step < in.sc.Steps; step++ {
		at, demand, err := in.lookup(step, p)
		if err != nil {
			return err
		}
		if err := eng.Step(at, p, demand); err != nil {
			return err
		}
	}
	return nil
}

// runChunk is how many routed steps Run hands the billing goroutine at
// once, and runChunks how many chunks circulate between the two: one
// routing, one billing, one spare. A hand-off is one channel send and
// receive per chunk, so its cost stays near 1% of a step even when both
// goroutines share one CPU.
const (
	runChunk  = 128
	runChunks = 3
)

// billChunk is one hand-off: up to runChunk routed steps' records.
type billChunk struct {
	recs []stepRecord // runChunk records, their vectors cut from one buffer
	n    int          // records routed and not yet billed
}

// newBillChunks allocates Run's hand-off buffers once: runChunks chunks
// of records carrying nc loads and billing prices each, plus the
// decision prices when the scenario has a batch class (its scheduler
// reads them) and the carbon intensities when it meters carbon.
func newBillChunks(nc int, sc *Scenario) []billChunk {
	width := 2
	if sc.Batch != nil {
		width++
	}
	if sc.Carbon != nil {
		width++
	}
	buf := make([]float64, runChunks*runChunk*width*nc)
	next := func() []float64 {
		v := buf[:nc:nc]
		buf = buf[nc:]
		return v
	}
	recs := make([]stepRecord, runChunks*runChunk)
	for i := range recs {
		r := &recs[i]
		r.loads, r.bill = next(), next()
		if sc.Batch != nil {
			r.decision = next()
		}
		if sc.Carbon != nil {
			r.carbon = next()
		}
	}
	chunks := make([]billChunk, runChunks)
	for i := range chunks {
		chunks[i].recs = recs[i*runChunk : (i+1)*runChunk]
	}
	return chunks
}

// runOverlapped routes every step on the calling goroutine and bills the
// routed steps on one helper goroutine, a chunk at a time. However the
// routing ends, an error included, it hands over the steps already routed
// and joins the helper before it returns.
func runOverlapped(eng *Engine, in *runInputs) error {
	chunks := newBillChunks(eng.nc, in.sc)
	// Each channel can hold every chunk, so no send ever blocks: the
	// router waits only for a free chunk, the biller only for a full one.
	free := make(chan *billChunk, runChunks)
	full := make(chan *billChunk, runChunks)
	for i := range chunks {
		free <- &chunks[i]
	}
	billed := make(chan struct{})
	go func() {
		defer close(billed)
		for ch := range full {
			for i := range ch.recs[:ch.n] {
				eng.bill(&ch.recs[i])
			}
			ch.n = 0
			free <- ch
		}
	}()

	ch := <-free
	defer func() {
		if ch.n > 0 {
			full <- ch
		}
		close(full)
		<-billed
	}()
	// Records without decision prices route from one reused vector.
	decision := make([]float64, eng.nc)
	for step := 0; step < in.sc.Steps; step++ {
		r := &ch.recs[ch.n]
		p := StepPrices{Decision: r.decision, Bill: r.bill, Carbon: r.carbon}
		if p.Decision == nil {
			p.Decision = decision
		}
		at, demand, err := in.lookup(step, p)
		if err != nil {
			return err
		}
		r.at, r.step = at, eng.stepsRun
		if err := eng.route(at, p, demand); err != nil {
			return err
		}
		copy(r.loads, eng.loads)
		if ch.n++; ch.n == len(ch.recs) {
			full <- ch
			ch = <-free
		}
	}
	return nil
}

// DeriveCaps runs the scenario under the Akamai-like baseline policy with
// no constraints and returns the observed per-cluster 95th percentiles
// (the caps a constrained run must not exceed, §4) along with the baseline
// result itself.
func DeriveCaps(sc Scenario) ([]float64, *Result, error) {
	sc.Policy = routing.NewBaseline(sc.Fleet)
	sc.SoftCaps = nil
	res, err := Run(sc)
	if err != nil {
		return nil, nil, err
	}
	caps := make([]float64, len(res.BillableP95))
	copy(caps, res.BillableP95)
	return caps, res, nil
}

// TraceDemand adapts a 5-minute traffic trace to the DemandSource
// interface. Instants are snapped to the covering 5-minute sample; times
// outside the trace return an all-zero demand vector.
type TraceDemand struct {
	start   time.Time
	samples int
	rates   [][]float64 // [state][sample]
}

// NewTraceDemand builds the adapter from per-state rate slices.
func NewTraceDemand(start time.Time, samples int, perState [][]float64) (*TraceDemand, error) {
	if len(perState) == 0 {
		return nil, errors.New("sim: empty trace demand")
	}
	for i := range perState {
		if len(perState[i]) != samples {
			return nil, fmt.Errorf("sim: state %d has %d samples, want %d", i, len(perState[i]), samples)
		}
	}
	return &TraceDemand{start: start.UTC(), samples: samples, rates: perState}, nil
}

// Rates implements DemandSource.
func (td *TraceDemand) Rates(at time.Time, dst []float64) []float64 {
	if len(dst) != len(td.rates) {
		dst = make([]float64, len(td.rates))
	}
	// Go's integer division truncates toward zero, so a bare int(d/step)
	// would map instants up to one step *before* the trace start onto
	// sample 0; the pre-start side needs its own check.
	idx := -1
	if !at.Before(td.start) {
		idx = int(at.Sub(td.start) / timeseries.FiveMinute)
	}
	if idx < 0 || idx >= td.samples {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i := range td.rates {
		dst[i] = td.rates[i][idx]
	}
	return dst
}

// FromTrace builds a TraceDemand view over a traffic trace (the underlying
// rate slices are shared, not copied).
func FromTrace(tr *traffic.Trace) (*TraceDemand, error) {
	perState := make([][]float64, len(tr.States))
	for i := range tr.States {
		perState[i] = tr.States[i].Rate
	}
	return NewTraceDemand(tr.Start, tr.Samples, perState)
}
