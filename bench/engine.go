package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"powerroute/internal/billing"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
	"powerroute/internal/stats"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
)

// engineRep is the library user's request: one whole-horizon batch
// sim.Run. Its wall time is both the rep's latency and its step rate. The
// engine workloads' traced reps are layer passes, so it records no spans.
func engineRep(r *runner, _ int, _ *tracer) (repResult, error) {
	t0 := time.Now()
	sc, err := r.w.scenario()
	if err != nil {
		return repResult{}, err
	}
	res, err := sim.Run(sc)
	d := time.Since(t0)
	if !r.check("rep result", res, err) {
		return repResult{}, nil
	}
	return repResult{steps: res.Steps, elapsed: d, latencies: []float64{ms(d)}}, nil
}

// layerTiming is what a layer pass reports for the validity metrics: its
// timed loop's wall time (new engine to finalize) and the engine layers'
// time per step.
type layerTiming struct {
	engine  time.Duration
	perStep float64 // seconds
}

// renderReps repeats each status/metrics render of a layer pass, so the
// per-render time is not one clock-resolution sample.
const renderReps = 20

// layerPass times one run of the workload's joint scenario layer by
// layer. A timed loop mirrors sim.Run — DemandSource.Rates, the
// per-cluster price lookups, Engine.Step, Finalize — with a clock read
// between stages, and must reproduce sim.Run's Result bit for bit. The
// checkpoint, render, restore and decode layers are timed on the same
// run, and a second, recorded run feeds the shadow stages.
func (r *runner) layerPass(rep int) (layerTiming, error) {
	tr, m := r.tr, r.layer
	// The previous pass's shadow buffers are garbage; collect them now
	// rather than inside this pass's timed loop.
	runtime.GC()
	passID := tr.reserve(0, rep, "layer.pass")
	passStart := time.Now()

	sc, err := r.w.scenario()
	if err != nil {
		return layerTiming{}, err
	}
	t0 := time.Now()
	eng, err := sim.NewEngine(sc)
	if err != nil {
		return layerTiming{}, err
	}
	newEngine := time.Since(t0)
	tr.record(passID, rep, "sim.new_engine", t0, t0.Add(newEngine))
	in, err := newStepInputs(sc, eng.PriceSeries())
	if err != nil {
		return layerTiming{}, err
	}
	var rates, lookups, steps time.Duration
	loopStart := time.Now()
	a := loopStart
	for i := 0; i < sc.Steps; i++ {
		at := in.rates(i)
		b := time.Now()
		if err := in.prices(at); err != nil {
			return layerTiming{}, err
		}
		c := time.Now()
		if err := in.step(eng, at); err != nil {
			return layerTiming{}, err
		}
		d := time.Now()
		rates += b.Sub(a)
		lookups += c.Sub(b)
		steps += d.Sub(c)
		a = d
	}
	loop := a.Sub(loopStart)
	tr.record(passID, rep, "sim.loop", loopStart, a)

	t0 = time.Now()
	cp, err := eng.Checkpoint()
	if err != nil {
		return layerTiming{}, err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return layerTiming{}, err
	}
	t2 := time.Now()
	decoded, err := sim.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return layerTiming{}, err
	}
	t3 := time.Now()
	tr.record(passID, rep, "sim.checkpoint_capture", t0, t1)
	tr.record(passID, rep, "sim.checkpoint_encode", t1, t2)
	tr.record(passID, rep, "sim.checkpoint_decode", t2, t3)
	m.add("sim.checkpoint_capture_ms", ms(t1.Sub(t0)))
	m.add("sim.checkpoint_encode_ms", ms(t2.Sub(t1)))
	m.add("sim.checkpoint_decode_ms", ms(t3.Sub(t2)))
	m.add("sim.checkpoint_bytes", float64(buf.Len()))

	snap := eng.Snapshot()
	t0 = time.Now()
	for k := 0; k < renderReps; k++ {
		if _, err := json.Marshal(server.StatusPayload(sc.Fleet, snap, 0)); err != nil {
			return layerTiming{}, err
		}
	}
	t1 = time.Now()
	for k := 0; k < renderReps; k++ {
		_ = server.MetricsText(sc.Fleet, snap, 0, nil)
	}
	t2 = time.Now()
	tr.record(passID, rep, "server.status_render", t0, t1)
	tr.record(passID, rep, "server.metrics_render", t1, t2)
	m.add("server.status_render_us", us(t1.Sub(t0))/renderReps)
	m.add("server.metrics_render_us", us(t2.Sub(t1))/renderReps)

	t0 = time.Now()
	res, err := eng.Finalize()
	finalize := time.Since(t0)
	tr.record(passID, rep, "sim.finalize", t0, t0.Add(finalize))
	r.check("layer pass result", res, err)

	restoreSc, err := r.w.scenario()
	if err != nil {
		return layerTiming{}, err
	}
	t0 = time.Now()
	restored, err := sim.Restore(restoreSc, decoded)
	t1 = time.Now()
	tr.record(passID, rep, "sim.restore", t0, t1)
	m.add("sim.restore_ms", ms(t1.Sub(t0)))
	if err != nil {
		r.check("restored result", nil, err)
	} else {
		rres, err := restored.Finalize()
		r.check("restored result", rres, err)
	}

	if err := r.timeDecode(passID, rep); err != nil {
		return layerTiming{}, err
	}
	sh, err := r.shadowPass(passID, rep, res)
	if err != nil {
		return layerTiming{}, err
	}

	n := float64(sc.Steps)
	m.add("sim.new_engine_ms", ms(newEngine))
	m.add("sim.finalize_ms", ms(finalize))
	m.add("traffic.rates_ns_per_step", float64(rates.Nanoseconds())/n)
	m.add("timeseries.lookup_ns_per_step", float64(lookups.Nanoseconds())/n)
	m.add("sim.step_ns_per_step", float64(steps.Nanoseconds())/n)
	m.add("sim.step_other_ns_per_step", float64((steps-sh.stageTime()).Nanoseconds())/n)
	sh.report(m)
	tr.close(passID, passStart, time.Now())
	return layerTiming{
		engine:  newEngine + loop + finalize,
		perStep: (newEngine + rates + lookups + steps + finalize).Seconds() / n,
	}, nil
}

// shadowPass steps a second engine through the same inputs, recording
// every step for the shadow stages, and checks their outputs against the
// timed run's Result (when it produced one).
func (r *runner) shadowPass(parent, rep int, res *sim.Result) (*shadow, error) {
	sc, err := r.w.scenario()
	if err != nil {
		return nil, err
	}
	shadowSc, err := r.w.scenario()
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(sc)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	id := r.tr.reserve(parent, rep, "shadow")
	sh, err := newShadow(shadowSc, eng.PriceSeries(), r.tr, id, rep)
	if err != nil {
		return nil, err
	}
	in, err := newStepInputs(sc, eng.PriceSeries())
	if err != nil {
		return nil, err
	}
	for i := 0; i < sc.Steps; i++ {
		at := in.rates(i)
		if err := in.prices(at); err != nil {
			return nil, err
		}
		if err := in.step(eng, at); err != nil {
			return nil, err
		}
		if err := sh.record(eng, at, in); err != nil {
			return nil, err
		}
	}
	if err := sh.flush(); err != nil {
		return nil, err
	}
	r.tr.close(id, start, time.Now())
	if res != nil {
		r.attempted++
		if problems := sh.verify(res); len(problems) > 0 {
			r.fail("shadow stages: %s", strings.Join(problems, "; "))
		}
	}
	return sh, nil
}

// timeDecode times the server's binary batch decoder — ParseBatchHeader
// then DecodeRow per row, the work the demand handler does before routing
// — over the workload's demand batches.
func (r *runner) timeDecode(parent, rep int) error {
	if r.w.demandBodies == nil {
		if err := r.w.encodeBodies(false); err != nil {
			return err
		}
	}
	var rows int
	var row []float64
	var rowBytes []byte
	t0 := time.Now()
	for _, body := range r.w.demandBodies {
		br := bufio.NewReaderSize(bytes.NewReader(body), 1<<16)
		h, err := server.ParseBatchHeader(br)
		if err != nil {
			return err
		}
		if len(row) != h.Cols {
			row = make([]float64, h.Cols)
			rowBytes = make([]byte, 8*h.Cols)
		}
		for i := 0; i < h.Rows; i++ {
			if _, err := io.ReadFull(br, rowBytes); err != nil {
				return err
			}
			if err := server.DecodeRow(rowBytes, row); err != nil {
				return err
			}
		}
		rows += h.Rows
	}
	t1 := time.Now()
	r.tr.record(parent, rep, "server.decode", t0, t1)
	r.layer.add("server.decode_ns_per_row", float64(t1.Sub(t0).Nanoseconds())/float64(rows))
	return nil
}

// stepInputs produces each step's demand and prices the way sim.Run
// does, resolving every cluster's price with one index computation for
// series that share the market's geometry.
type stepInputs struct {
	sc                     sim.Scenario
	series                 []*timeseries.Series
	start                  time.Time
	every                  time.Duration // the series' sample spacing
	n                      int
	demand, decision, bill []float64
}

func newStepInputs(sc sim.Scenario, series []*timeseries.Series) (*stepInputs, error) {
	first := series[0]
	in := &stepInputs{
		sc: sc, series: series, start: first.Start, every: first.Step, n: first.Len(),
		decision: make([]float64, len(series)), bill: make([]float64, len(series)),
	}
	for _, s := range series[1:] {
		if !s.Start.Equal(in.start) || s.Step != in.every || s.Len() != in.n {
			return nil, fmt.Errorf("price series do not share one geometry")
		}
	}
	return in, nil
}

// rates fills the demand of step i and returns its instant.
func (in *stepInputs) rates(i int) time.Time {
	at := in.sc.Start.Add(time.Duration(i) * in.sc.Step)
	in.demand = in.sc.Demand.Rates(at, in.demand)
	return at
}

// prices fills the decision prices, lagged by the reaction delay and
// clamped to the start of the market, and the billing prices at at.
func (in *stepInputs) prices(at time.Time) error {
	decisionAt := at.Add(-in.sc.ReactionDelay)
	if decisionAt.Before(in.start) {
		decisionAt = in.start
	}
	if err := in.values(decisionAt, in.decision); err != nil {
		return err
	}
	return in.values(at, in.bill)
}

func (in *stepInputs) values(at time.Time, dst []float64) error {
	d := at.Sub(in.start)
	i := int(d / in.every)
	if d < 0 || i >= in.n {
		return fmt.Errorf("no price at %v", at)
	}
	for c, s := range in.series {
		dst[c] = s.Values[i]
	}
	return nil
}

func (in *stepInputs) step(eng *sim.Engine, at time.Time) error {
	return eng.Step(at, sim.StepPrices{Decision: in.decision, Bill: in.bill}, in.demand)
}

// shadowWindow is how many recorded steps the shadow pass replays at a
// time: large enough that each stage runs as a tight loop, small enough
// that the recorded assignment matrices stay a few MB.
const shadowWindow = 512

// The engine's distance-histogram geometry (0–5500 km in 5 km bins),
// which the shadow histograms must share to fold to the same mean.
const (
	distHistMaxKm = 5500
	distHistBins  = 1100
)

// shadow re-calls each stage of Engine.Step through its own public
// function on the recorded inputs and outputs of a harness run: the
// router (own optimizer, room tiers rebuilt from its own 95/5
// constraints), the power model, the distance histogram, the 95/5 meter
// and the battery dispatch. Workloads without batteries get shadow
// batteries of the engine-5min-full kind, so the dispatch cost is
// measured on every workload's prices.
type shadow struct {
	sc        sim.Scenario
	nc, ns    int
	stepHours float64

	n        int // recorded steps in the window
	at       []time.Time
	demand   [][]float64
	decision [][]float64
	bill     [][]float64
	assign   [][][]float64 // engine's assignment per step
	out      [][][]float64 // shadow router's assignment per step
	outFlat  []float64
	room     [][]float64
	burst    [][]float64
	loads    [][]float64
	util     [][]float64
	itKW     [][]float64

	ctx         routing.Context
	capacities  []float64
	constraints []*billing.Constraint
	evals       []energy.Evaluator
	meters      []billing.Meter
	hists       []*stats.WeightedHistogram
	bins        [][]int
	batteries   []*storage.State
	dispatch    storage.Policy
	onStep      bool // the dispatch is on the engine's own step path

	prevDecision []float64
	prevUtil     []float64
	started      bool

	steps, reranks, utilRepeats, histAdds int
	mismatches                            int
	allocate, power, hist, meter, store   time.Duration

	tr          *tracer
	parent, rep int
}

func newShadow(sc sim.Scenario, prices []*timeseries.Series, tr *tracer, parent, rep int) (*shadow, error) {
	nc, ns := len(sc.Fleet.Clusters), len(sc.Fleet.States)
	sh := &shadow{
		sc: sc, nc: nc, ns: ns, stepHours: sc.Step.Hours(),
		at:           make([]time.Time, shadowWindow),
		demand:       matrix(shadowWindow, ns),
		decision:     matrix(shadowWindow, nc),
		bill:         matrix(shadowWindow, nc),
		room:         matrix(shadowWindow, nc),
		burst:        matrix(shadowWindow, nc),
		loads:        matrix(shadowWindow, nc),
		util:         matrix(shadowWindow, nc),
		itKW:         matrix(shadowWindow, nc),
		assign:       make([][][]float64, shadowWindow),
		out:          make([][][]float64, shadowWindow),
		outFlat:      make([]float64, shadowWindow*ns*nc),
		capacities:   make([]float64, nc),
		evals:        make([]energy.Evaluator, nc),
		meters:       make([]billing.Meter, nc),
		hists:        make([]*stats.WeightedHistogram, nc),
		bins:         make([][]int, ns),
		batteries:    make([]*storage.State, nc),
		prevDecision: make([]float64, nc),
		prevUtil:     make([]float64, nc),
		tr:           tr, parent: parent, rep: rep,
	}
	sh.ctx = routing.Context{
		Demand: make([]float64, ns), DecisionPrices: make([]float64, nc),
		Room: make([]float64, nc), BurstRoom: make([]float64, nc),
	}
	for i := range sh.assign {
		sh.assign[i] = matrix(ns, nc)
		sh.out[i] = make([][]float64, ns)
		for s := range sh.out[i] {
			off := (i*ns + s) * nc
			sh.out[i][s] = sh.outFlat[off : off+nc : off+nc]
		}
	}
	for c, cl := range sc.Fleet.Clusters {
		sh.capacities[c] = float64(cl.Capacity)
		sh.evals[c] = sc.Energy.Evaluator(cl.Servers)
		sh.meters[c].Reserve(sc.Steps)
		sh.hists[c] = stats.NewWeightedHistogram(0, distHistMaxKm, distHistBins)
	}
	for s := range sh.bins {
		sh.bins[s] = make([]int, nc)
		for c, d := range sc.Fleet.DistanceKm[s] {
			sh.bins[s][c] = -1
			if !math.IsNaN(d) && !math.IsInf(d, 0) {
				sh.bins[s][c] = sh.hists[c].BinIndex(d)
			}
		}
	}
	if sc.SoftCaps != nil {
		sh.constraints = make([]*billing.Constraint, nc)
		for c := range sh.constraints {
			con, err := billing.NewConstraint(sc.SoftCaps[c], sc.Steps)
			if err != nil {
				return nil, err
			}
			sh.constraints[c] = con
		}
	}
	if sc.Storage != nil {
		sh.dispatch, sh.onStep = sc.Storage.Policy, true
		for c, b := range sc.Storage.Batteries {
			sh.batteries[c] = storage.NewState(b)
		}
	} else {
		batteries := make([]storage.Battery, nc)
		for c, cl := range sc.Fleet.Clusters {
			n := float64(cl.Servers)
			batteries[c] = storage.Battery{
				CapacityKWh: batteryKWhPerServer * n, RoundTripEfficiency: batteryRoundTrip,
				MaxChargeKW: batteryWPerServer * n / 1000, MaxDischargeKW: batteryWPerServer * n / 1000,
			}
			sh.batteries[c] = storage.NewState(batteries[c])
		}
		l, err := storage.NewLyapunov(prices, batteries, sh.stepHours, 0)
		if err != nil {
			return nil, err
		}
		sh.dispatch = l
	}
	return sh, nil
}

func matrix(rows, cols int) [][]float64 {
	flat := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// record copies one routed step into the window, replaying the window
// through the shadow stages once it is full.
func (sh *shadow) record(eng *sim.Engine, at time.Time, in *stepInputs) error {
	i := sh.n
	sh.at[i] = at
	copy(sh.demand[i], in.demand)
	copy(sh.decision[i], in.decision)
	copy(sh.bill[i], in.bill)
	eng.Assignments(sh.assign[i])
	sh.n++
	if sh.n == shadowWindow {
		return sh.flush()
	}
	return nil
}

// flush replays the recorded window. An untimed prologue derives what
// the engine derived between its stages — per-cluster loads and
// utilizations, the room tiers and burst gate, the re-rank and
// utilization-repeat counts — then each stage runs as one timed loop.
func (sh *shadow) flush() error {
	if sh.n == 0 {
		return nil
	}
	start := time.Now()
	nc, n := sh.nc, sh.n
	for i := 0; i < n; i++ {
		loads := sh.loads[i]
		clear(loads)
		for s := range sh.assign[i] {
			for c, rate := range sh.assign[i][s] {
				if rate > 0 {
					loads[c] += rate
					sh.histAdds++
				}
			}
		}
		for c := range loads {
			u := 0.0
			if sh.capacities[c] > 0 {
				u = min(max(loads[c]/sh.capacities[c], 0), 1)
			}
			if sh.started && u == sh.prevUtil[c] {
				sh.utilRepeats++
			}
			sh.util[i][c], sh.prevUtil[c] = u, u
		}
		if !sh.started || !equalFloats(sh.decision[i], sh.prevDecision) {
			sh.reranks++
		}
		copy(sh.prevDecision, sh.decision[i])
		sh.started = true
		if err := sh.roomTiers(i); err != nil {
			return err
		}
	}

	clear(sh.outFlat[:n*sh.ns*nc])
	ctx := &sh.ctx
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ctx.At = sh.at[i]
		copy(ctx.Demand, sh.demand[i])
		copy(ctx.DecisionPrices, sh.decision[i])
		copy(ctx.Room, sh.room[i])
		copy(ctx.BurstRoom, sh.burst[i])
		if err := sh.sc.Policy.Allocate(ctx, sh.out[i]); err != nil {
			return err
		}
	}
	t1 := time.Now()
	for i := 0; i < n; i++ {
		for c := 0; c < nc; c++ {
			sh.itKW[i][c] = sh.evals[c].Energy(sh.util[i][c], sh.stepHours).KilowattHours() / sh.stepHours
		}
	}
	t2 := time.Now()
	fleet := sh.sc.Fleet
	for i := 0; i < n; i++ {
		for s, row := range sh.assign[i] {
			dist := fleet.DistanceKm[s]
			bins := sh.bins[s]
			for c, rate := range row {
				if rate <= 0 {
					continue
				}
				if b := bins[c]; b >= 0 {
					sh.hists[c].AddToBin(b, dist[c], rate*sh.stepHours)
				} else {
					sh.hists[c].Add(dist[c], rate*sh.stepHours)
				}
			}
		}
	}
	t3 := time.Now()
	for i := 0; i < n; i++ {
		for c, load := range sh.loads[i] {
			sh.meters[c].Record(load)
		}
	}
	t4 := time.Now()
	for i := 0; i < n; i++ {
		for c, b := range sh.batteries {
			itKW := sh.itKW[i][c]
			if act := sh.dispatch.Action(c, sh.bill[i][c], itKW, b); act > 0 {
				b.Charge(act, sh.stepHours)
			} else if act < 0 {
				b.Discharge(min(-act, itKW), sh.stepHours)
			}
		}
	}
	t5 := time.Now()

	for i := 0; i < n; i++ {
		for s, row := range sh.assign[i] {
			if !equalFloats(row, sh.out[i][s]) {
				sh.mismatches++
				break
			}
		}
	}
	sh.allocate += t1.Sub(t0)
	sh.power += t2.Sub(t1)
	sh.hist += t3.Sub(t2)
	sh.meter += t4.Sub(t3)
	sh.store += t5.Sub(t4)
	sh.steps += n
	sh.n = 0
	if tr := sh.tr; tr != nil {
		id := tr.reserve(sh.parent, sh.rep, "shadow.window")
		tr.record(id, sh.rep, "routing.allocate", t0, t1)
		tr.record(id, sh.rep, "energy.power", t1, t2)
		tr.record(id, sh.rep, "stats.hist_add", t2, t3)
		tr.record(id, sh.rep, "billing.meter_record", t3, t4)
		tr.record(id, sh.rep, "storage.action", t4, t5)
		tr.close(id, start, time.Now())
	}
	return nil
}

// roomTiers rebuilds step i's room vectors exactly as Engine.Step does:
// capacity without soft caps; otherwise each cluster's 95/5 cap, plus
// burst room up to capacity when the fleet gate opens and the cluster
// still has burst budget. The step's loads are then committed to the
// shadow constraints.
func (sh *shadow) roomTiers(i int) error {
	room, burst := sh.room[i], sh.burst[i]
	if sh.constraints == nil {
		copy(room, sh.capacities)
		clear(burst)
		return nil
	}
	var totalRoom float64
	for c, con := range sh.constraints {
		room[c] = min(con.Cap, sh.capacities[c])
		burst[c] = 0
		totalRoom += room[c]
	}
	if sim.BurstGateOpen(sim.SumDemand(sh.demand[i]), totalRoom) {
		for c, con := range sh.constraints {
			if con.CanBurst() {
				burst[c] = sh.capacities[c] - room[c]
			}
		}
	}
	for c, con := range sh.constraints {
		if err := con.Commit(sh.loads[i][c]); err != nil {
			return err
		}
	}
	return nil
}

// stageTime is the shadow time of the stages that run inside the
// engine's own Step for this scenario.
func (sh *shadow) stageTime() time.Duration {
	t := sh.allocate + sh.power + sh.hist + sh.meter
	if sh.onStep {
		t += sh.store
	}
	return t
}

func (sh *shadow) report(m metricSet) {
	calls := float64(sh.steps * sh.nc)
	m.add("routing.allocate_ns_per_call", float64(sh.allocate.Nanoseconds())/float64(sh.steps))
	m.add("routing.rerank_ratio", float64(sh.reranks)/float64(sh.steps))
	m.add("energy.power_ns_per_call", float64(sh.power.Nanoseconds())/calls)
	m.add("energy.util_repeat_ratio", float64(sh.utilRepeats)/calls)
	m.add("stats.hist_add_ns_per_call", float64(sh.hist.Nanoseconds())/float64(max(sh.histAdds, 1)))
	m.add("billing.meter_record_ns_per_call", float64(sh.meter.Nanoseconds())/calls)
	m.add("storage.action_ns_per_call", float64(sh.store.Nanoseconds())/calls)
}

// verify compares the shadow stages' outputs with the engine's Result:
// the router's assignment on every step, the 95/5 bills, the fleet
// distance mean, and — when the batteries are the engine's own — their
// final state of charge.
func (sh *shadow) verify(res *sim.Result) []string {
	var problems []string
	if sh.mismatches > 0 {
		problems = append(problems, fmt.Sprintf("shadow Allocate differs from Engine.Assignments on %d of %d steps", sh.mismatches, sh.steps))
	}
	for c := range sh.meters {
		if p95, err := sh.meters[c].Percentile95(); err != nil || p95 != res.BillableP95[c] {
			problems = append(problems, fmt.Sprintf("cluster %d shadow p95 %v, engine %v (%v)", c, p95, res.BillableP95[c], err))
		}
	}
	fold := stats.NewWeightedHistogram(0, distHistMaxKm, distHistBins)
	for _, h := range sh.hists {
		if err := fold.Merge(h); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if mean := fold.Mean(); mean != res.MeanDistanceKm {
		problems = append(problems, fmt.Sprintf("shadow mean distance %v, engine %v", mean, res.MeanDistanceKm))
	}
	if sh.onStep {
		for c, b := range sh.batteries {
			if b.SoCKWh() != res.FinalSoCKWh[c] {
				problems = append(problems, fmt.Sprintf("cluster %d shadow SoC %v, engine %v", c, b.SoCKWh(), res.FinalSoCKWh[c]))
			}
		}
	}
	return problems
}

func equalFloats(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
