package main

import (
	"bytes"
	"fmt"
	"time"

	"powerroute/internal/batchspec"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/sched"
	"powerroute/internal/server"
	"powerroute/internal/sim"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
)

// batchRows is the replay chunk: one binary price batch and one binary
// demand batch per 2048 intervals, the shape tracegen's replay posts.
const batchRows = 2048

// workload is one input set the benchmark runs. Every workload builds its
// world from core.NewSystem with the run's seed.
type workload struct {
	name  string
	setup func(seed int64) (*world, error)
	// rep runs one whole unit of the workload; tr is nil outside traced
	// reps. Errors are set-up failures; output and request failures are
	// counted by the runner and reported as a rep with no steps.
	rep func(r *runner, rep int, tr *tracer) (repResult, error)
	// http marks the workloads whose reps go through the daemons, which
	// get traced reps of their own before the layer passes.
	http bool
	// features, when set, checks that the reference result shows the
	// workload's optional subsystems actually doing work.
	features func(*sim.Result) error
}

var workloads = []*workload{
	{
		name:  "engine-hourly",
		setup: setupEngineHourly,
		rep:   engineRep,
	},
	{
		name:     "engine-5min-full",
		setup:    setupEngine5MinFull,
		rep:      engineRep,
		features: fullFeaturesRan,
	},
	{
		name:  "daemon-replay",
		setup: setupDaemonReplay,
		rep:   daemonRep,
		http:  true,
	},
	{
		name:  "coord-burst3",
		setup: setupCoordBurst3,
		rep:   coordRep,
		http:  true,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// world is one workload's assembled inputs.
type world struct {
	sys *core.System
	// scenario builds the workload's joint scenario with a fresh routing
	// policy each call: engines must not share an optimizer's order cache.
	scenario func() (sim.Scenario, error)
	steps    int
	// Binary replay bodies covering the whole horizon. The daemon
	// workloads build them at set-up; the engine workloads only need the
	// demand side, for the decode timing of a layer pass, and build it
	// then.
	priceBodies  [][]byte
	demandBodies [][]byte

	newSystem time.Duration // core.NewSystem's share of set-up
}

func newSystem(seed int64) (*core.System, time.Duration, error) {
	t0 := time.Now()
	sys, err := core.NewSystem(core.Options{Seed: seed})
	return sys, time.Since(t0), err
}

// hourlyScenario is the paper's 39-month world under the 1500 km price
// optimizer.
func hourlyScenario(sys *core.System) func() (sim.Scenario, error) {
	return func() (sim.Scenario, error) {
		opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
		if err != nil {
			return sim.Scenario{}, err
		}
		return sim.Scenario{
			Fleet: sys.Fleet, Policy: opt, Energy: energy.OptimisticFuture,
			Market: sys.Market, Demand: sys.LongRun,
			Start: sys.Market.Start, Steps: sys.Market.Hours, Step: time.Hour,
			ReactionDelay: sim.DefaultReactionDelay,
		}, nil
	}
}

func setupEngineHourly(seed int64) (*world, error) {
	sys, ns, err := newSystem(seed)
	if err != nil {
		return nil, err
	}
	return &world{sys: sys, scenario: hourlyScenario(sys), steps: sys.Market.Hours, newSystem: ns}, nil
}

// The engine-5min-full extras: per-server Lyapunov batteries, a demand
// charge, and a batch class with one job per cluster every hour.
const (
	batteryKWhPerServer = 1.0
	batteryWPerServer   = 150.0
	batteryRoundTrip    = 0.85
	demandChargePerKW   = 12.0
	batchSpec           = "w=20,pct=0.3"
	jobEvery            = 12
	jobSlack            = 72
	jobFloor            = 0.5
	jobShareOfMaxKW     = 0.3
)

func setupEngine5MinFull(seed int64) (*world, error) {
	sys, ns, err := newSystem(seed)
	if err != nil {
		return nil, err
	}
	demand, err := sim.FromTrace(sys.Trace)
	if err != nil {
		return nil, err
	}
	base := sim.Scenario{
		Fleet: sys.Fleet, Energy: energy.OptimisticFuture, Market: sys.Market, Demand: demand,
		Start: sys.Trace.Start, Steps: sys.Trace.Samples, Step: 5 * time.Minute,
		ReactionDelay: sim.DefaultReactionDelay,
	}
	caps, _, err := sim.DeriveCaps(base)
	if err != nil {
		return nil, err
	}

	nc := len(sys.Fleet.Clusters)
	prices := make([]*timeseries.Series, nc)
	batteries := make([]storage.Battery, nc)
	for c, cl := range sys.Fleet.Clusters {
		if prices[c], err = sys.Market.RT(cl.HubID); err != nil {
			return nil, err
		}
		n := float64(cl.Servers)
		batteries[c] = storage.Battery{
			CapacityKWh:         batteryKWhPerServer * n,
			MaxChargeKW:         batteryWPerServer * n / 1000,
			MaxDischargeKW:      batteryWPerServer * n / 1000,
			RoundTripEfficiency: batteryRoundTrip,
		}
	}
	lyapunov, err := storage.NewLyapunov(prices, batteries, base.Step.Hours(), 0)
	if err != nil {
		return nil, err
	}

	batch, err := batchspec.Parse(batchSpec, sys.Fleet, sys.Market)
	if err != nil {
		return nil, err
	}
	for arrival := 0; arrival+jobSlack <= base.Steps; arrival += jobEvery {
		for c, kw := range batch.MaxBatchKW {
			batch.Jobs = append(batch.Jobs, sched.Job{
				Cluster: c, Arrival: arrival, Deadline: arrival + jobSlack,
				EnergyKWh: jobShareOfMaxKW * kw, MinFraction: jobFloor,
			})
		}
	}

	scenario := func() (sim.Scenario, error) {
		opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
		if err != nil {
			return sim.Scenario{}, err
		}
		sc := base
		sc.Policy = opt
		sc.SoftCaps = append([]float64(nil), caps...)
		sc.Storage = &storage.Config{Batteries: batteries, Policy: lyapunov}
		sc.DemandChargePerKW = demandChargePerKW
		sc.Batch = batch
		return sc, nil
	}
	return &world{sys: sys, scenario: scenario, steps: base.Steps, newSystem: ns}, nil
}

// fullFeaturesRan checks that batteries bought energy, batch jobs were
// served and soft-cap bursts were spent, so engine-5min-full never
// silently measures idle subsystems.
func fullFeaturesRan(res *sim.Result) error {
	bursts := 0
	for _, b := range res.BurstsUsed {
		bursts += b
	}
	if !(res.StorageBoughtKWh > 0 && res.BatchServedKWh > 0 && bursts > 0) {
		return fmt.Errorf("features idle: storage bought %v kWh, batch served %v kWh, %d bursts", res.StorageBoughtKWh, res.BatchServedKWh, bursts)
	}
	return nil
}

func setupDaemonReplay(seed int64) (*world, error) {
	sys, ns, err := newSystem(seed)
	if err != nil {
		return nil, err
	}
	w := &world{sys: sys, scenario: hourlyScenario(sys), steps: sys.Market.Hours, newSystem: ns}
	return w, w.encodeBodies(true)
}

// burstHubs and burstReachKm are the burst-exact clique world of the
// 3-shard active-burst CI gate: three co-located hub pairs, each its own
// routing region at a 600 km reach.
const (
	burstHubs    = "NP15+SP15,ERN+ERS,NYC+DOM"
	burstReachKm = 600
)

func setupCoordBurst3(seed int64) (*world, error) {
	sys, ns, err := newSystem(seed)
	if err != nil {
		return nil, err
	}
	pairs, err := core.ParseBurstHubs(burstHubs)
	if err != nil {
		return nil, err
	}
	bw, err := sys.BurstWorld(pairs, burstReachKm, routing.DefaultPriceThreshold)
	if err != nil {
		return nil, err
	}
	// The joint world runs the coordinated gate (SelfGate) so it is
	// byte-comparable with a merged fleet of lease-fed shards.
	scenario := func() (sim.Scenario, error) {
		sc, err := sys.BurstScenario(bw, burstReachKm, routing.DefaultPriceThreshold, sim.DefaultReactionDelay)
		sc.BurstGate = sim.SelfGate{}
		return sc, err
	}
	w := &world{sys: sys, scenario: scenario, steps: sys.Market.Hours, newSystem: ns}
	return w, w.encodeBodies(true)
}

// encodeBodies builds the replay's binary batches: demand rows from the
// scenario's demand source and, when withPrices is set, every market
// hub's real-time prices for the same intervals.
func (w *world) encodeBodies(withPrices bool) error {
	sc, err := w.scenario()
	if err != nil {
		return err
	}
	var hubIDs []string
	var rts []*timeseries.Series
	if withPrices {
		if !sc.Start.Equal(w.sys.Market.Start) || sc.Step != time.Hour {
			return fmt.Errorf("price replay needs an hourly horizon from the market start")
		}
		for _, h := range w.sys.Market.Hubs() {
			rt, err := w.sys.Market.RT(h.ID)
			if err != nil {
				return err
			}
			hubIDs = append(hubIDs, h.ID)
			rts = append(rts, rt)
		}
	}
	ns := len(sc.Fleet.States)
	var demand []float64
	priceRow := make([]float64, len(hubIDs))
	row := make([]byte, 0, 8*max(ns, len(hubIDs)))
	w.priceBodies, w.demandBodies = nil, nil
	for off := 0; off < sc.Steps; off += batchRows {
		n := min(batchRows, sc.Steps-off)
		start := sc.Start.Add(time.Duration(off) * sc.Step)
		var db bytes.Buffer
		if err := server.WriteBatchHeader(&db, "demand", start, sc.Step, n, ns, nil); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			demand = sc.Demand.Rates(start.Add(time.Duration(i)*sc.Step), demand)
			db.Write(server.AppendRow(row[:0], demand))
		}
		w.demandBodies = append(w.demandBodies, db.Bytes())
		if !withPrices {
			continue
		}
		var pb bytes.Buffer
		if err := server.WriteBatchHeader(&pb, "prices", start, sc.Step, n, len(hubIDs), hubIDs); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			for j, rt := range rts {
				priceRow[j] = rt.Values[off+i]
			}
			pb.Write(server.AppendRow(row[:0], priceRow))
		}
		w.priceBodies = append(w.priceBodies, pb.Bytes())
	}
	return nil
}
