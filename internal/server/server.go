// Package server wraps a sim.Engine in a long-running HTTP daemon: the
// online counterpart of the batch simulator, shaped like the paper's §6.1
// mapping system. Price feeds and demand reports arrive over HTTP, every
// demand interval triggers one routing decision through the engine, and
// the running bill, peaks, and battery state are queryable while the
// daemon serves.
//
//	POST /v1/prices       ingest a price vector (JSON per hub, or binary batch)
//	POST /v1/demand       ingest demand and route one interval (JSON or binary batch)
//	GET  /v1/assignments  the last interval's routing decision
//	GET  /v1/status       running cost / peak / state-of-charge totals
//	GET  /v1/world        static world description (clusters, states, policy)
//	GET  /v1/checkpoint   operator snapshot: the engine's durable state (versioned encoding)
//	PUT  /v1/checkpoint   operator restore: resume from a snapshot of this world
//	GET  /metrics         Prometheus-style text metrics
//	GET  /healthz         liveness probe
//
// Handlers are safe for concurrent use. One mutex, Server.mu, serializes
// the engine, the price feed (pricefeed.go) and a lease-fed shard's gate
// latch, and no handler holds it while it reads a request body. A post of
// either kind is read, decoded and checked off the lock, then takes it
// only to commit: a price post to commit its rows to the feed, a demand
// post while its rows route, each looking up its bill and decision prices
// and stepping the engine. Every commit publishes, before it answers and
// while it still holds the lock, an immutable view: a fresh engine
// snapshot and the feed's entry count (publish). A status or metrics read
// renders the last published view and takes no lock, so it never waits
// for a batch to route; one that arrives mid-batch answers with the state
// before the batch, a serial order of the same requests. GET /v1/world
// renders facts New fixed, since a restore must match the same world. The
// clients in this repository (tracegen's replay, the shard coordinator,
// the benchmark) wait for a price post's answer before they send the
// demand that reads those prices, so price commits and routing have
// little to overlap. A step-aligned feed's covering row is found by
// arithmetic checked against the stored instants. The binary batch
// bodies (see feed.go) are the high-throughput path: a batch takes the
// lock once and commits or routes thousands of intervals per request.
//
// Every batch row is read through one RowReader: on a gates=1 batch the
// row's gate byte, on a jobs=1 batch its job block, then its cells. A
// demand post, JSON or binary, plain or jobs=1, is staged whole before
// the lock (a JSON post as a one-row batch), routes its rows through
// routeOne under it (route), and is answered by reply. A lease-fed shard
// (Config.Leases) takes every row's burst gate bit with the row, on a
// gates=1 batch or as a JSON post's "gate", and latches it just before
// the row routes; any other daemon refuses gate bits. The shard
// coordinator (internal/coord) reads batch rows through the same
// RowReader, admits JSON price posts through the same DecodePricePost,
// and serves through the same error, JSON, request-count and health
// helpers (httpserver.go).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"powerroute/internal/cluster"
	"powerroute/internal/sched"
	"powerroute/internal/sim"
)

// Config assembles a Server.
type Config struct {
	// Engine is the incremental simulation engine to serve. The server
	// owns it after New; all further access must go through handlers.
	Engine *sim.Engine

	// Leases, when non-nil, is the latch the engine reads its fleet gate
	// bits from, and makes the daemon a lease-fed shard: every demand row
	// must carry its gate bit (a gates=1 batch, or a JSON post's "gate"),
	// which the daemon latches for the step the row routes at. A shard of
	// a soft-capped fleet is started with the same store wired into its
	// engine's BurstGate; a daemon with no coordinated bursts leaves it
	// nil and refuses gate bits. The server owns the store after New, as
	// it owns the engine: it latches a bit only under the lock the engine
	// steps under, so the store needs no lock of its own.
	Leases *sim.LeaseStore
}

// Server is the powerrouted HTTP daemon state. The guarded_by
// annotations are enforced by powerroute-vet's lockcheck analyzer.
type Server struct {
	mu    sync.Mutex
	eng   *sim.Engine // guarded_by: mu
	fleet *cluster.Fleet
	step  time.Duration
	delay time.Duration
	world map[string]any // the GET /v1/world body, rendered by New

	feed     *priceFeed           // guarded_by: mu
	leases   *sim.LeaseStore      // nil unless this daemon is a lease-fed shard; latched under mu, read by eng.Step
	view     atomic.Pointer[view] // stored under mu by every commit (publish), loaded without it
	requests Requests             // locks itself
}

// view is what GET /v1/status, GET /metrics and a demand post's reply
// render: the engine snapshot and the feed's entry count one commit left.
// Nothing modifies a view once it is published.
type view struct {
	snap    *sim.Snapshot
	entries int
}

// New builds a Server around an engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: config missing engine")
	}
	fleet := cfg.Engine.Fleet()
	s := &Server{
		eng:    cfg.Engine,
		leases: cfg.Leases,
		fleet:  fleet,
		step:   cfg.Engine.StepSize(),
		delay:  cfg.Engine.ReactionDelay(),
		feed:   newPriceFeed(fleet),
	}
	s.world = worldPayload(cfg.Engine, s.publish().snap, s.leases != nil)
	return s, nil
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	count := s.requests.Count
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/prices", count("prices", s.handlePrices))
	mux.HandleFunc("POST /v1/demand", count("demand", s.handleDemand))
	mux.HandleFunc("GET /v1/assignments", count("assignments", s.handleAssignments))
	mux.HandleFunc("GET /v1/status", count("status", s.handleStatus))
	mux.HandleFunc("GET /v1/world", count("world", s.handleWorld))
	mux.HandleFunc("GET /v1/checkpoint", count("checkpoint", s.handleCheckpointGet))
	mux.HandleFunc("PUT /v1/checkpoint", count("checkpoint", s.handleCheckpointPut))
	mux.HandleFunc("GET /metrics", count("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", count("healthz", Healthz))
	return mux
}

// Finalize closes the engine's books and returns the final Result (for a
// shutdown summary). The server keeps answering reads afterwards; further
// demand ingestion fails.
func (s *Server) Finalize() (*sim.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.eng.Finalize()
	s.publish()
	return res, err
}

// publish stores, and returns, a view of the state as it stands: a fresh
// engine snapshot and the feed's entry count. Every commit calls it once,
// under the lock and before it answers, so a client that reads after its
// post was answered sees the post.
//
//lint:held mu callers publish what they committed under s.mu
func (s *Server) publish() *view {
	v := &view{snap: s.eng.Snapshot(), entries: s.feed.entries()}
	s.view.Store(v)
	return v
}

// batchError reports a mid-batch demand failure. Rows before the failing
// one are already committed to the engine, so the response carries the
// routed count and the engine's next expected interval — everything a
// client needs to resume instead of replaying a now-misaligned batch.
//
//lint:held mu callers lock s.mu for the whole batch
func (s *Server) batchError(w http.ResponseWriter, code, routed int, format string, args ...any) {
	s.publish()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":  fmt.Sprintf(format, args...),
		"routed": routed,
		"next":   s.eng.Next(),
	})
}

// --- price ingestion -------------------------------------------------------

// PricePost is the JSON body of POST /v1/prices: the hub prices taking
// effect at an instant. Hubs that host no cluster are ignored; every
// cluster must be covered once the overlay on the previous vector is
// applied.
type PricePost struct {
	At     time.Time          `json:"at"`
	Prices map[string]float64 `json:"prices"`
}

// DecodePricePost reads a JSON price post and runs every check that
// needs no feed: one JSON value within MaxJSONBody, an "at" the feed can
// key, at least one price, and every price within ±sim.MaxMagnitude. On
// failure it returns the status to answer with the error. Both daemons
// admit a JSON price post through it, so the coordinator refuses what
// its shards would before it posts to any of them.
func DecodePricePost(w http.ResponseWriter, r *http.Request) (PricePost, int, error) {
	var post PricePost
	if code, err := DecodeJSONBody(w, r, &post); err != nil {
		return post, code, fmt.Errorf("decoding price post: %w", err)
	}
	switch {
	case post.At.IsZero():
		return post, http.StatusBadRequest, errors.New(`price post missing "at"`)
	case post.At.Before(minFeedInstant) || post.At.After(maxFeedInstant):
		return post, http.StatusBadRequest, fmt.Errorf(`price post "at" %v is outside %v to %v`,
			post.At.UTC(), minFeedInstant, maxFeedInstant)
	case len(post.Prices) == 0:
		return post, http.StatusBadRequest, errors.New(`price post missing "prices"`)
	}
	for _, hub := range slices.Sorted(maps.Keys(post.Prices)) {
		if p := post.Prices[hub]; !(math.Abs(p) <= sim.MaxMagnitude) {
			return post, http.StatusBadRequest, fmt.Errorf("price post prices hub %s at %v $/MWh, past the ±%v bound", hub, p, sim.MaxMagnitude)
		}
	}
	return post, 0, nil
}

// batch returns the post as the one-row prices batch it commits as, its
// hubs in sorted order. One row needs no step.
func (p PricePost) batch() (*BatchHeader, []float64) {
	hubs := slices.Sorted(maps.Keys(p.Prices))
	flat := make([]float64, len(hubs))
	for j, hub := range hubs {
		flat[j] = p.Prices[hub]
	}
	return &BatchHeader{Kind: "prices", Start: p.At.UTC(), Rows: 1, Cols: len(hubs), Hubs: hubs}, flat
}

// handlePrices commits a JSON price post through the feed's one commit
// routine, as a one-row batch; a binary batch goes to handlePricesBatch.
func (s *Server) handlePrices(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") == ContentTypePricesBatch {
		s.handlePricesBatch(w, r)
		return
	}
	post, code, err := DecodePricePost(w, r)
	if err != nil {
		WriteError(w, code, "%v", err)
		return
	}
	ignored, entries, code, err := s.commitPrices(post.batch())
	if err != nil {
		WriteError(w, code, "%v", err)
		return
	}
	WriteJSON(w, map[string]any{
		"at":           post.At.UTC(),
		"ignored_hubs": ignored,
		"feed_entries": entries,
	})
}

func (s *Server) handlePricesBatch(w http.ResponseWriter, r *http.Request) {
	h, rows, err := OpenBatch(w, r, "prices")
	if err != nil {
		WriteBodyError(w, "reading price batch", err)
		return
	}
	// Stage the whole payload off the lock, then commit it atomically: a
	// batch that fails to read or decode records nothing.
	d := stage(h, rows)
	if d.err != nil {
		WriteBodyError(w, fmt.Sprintf("price row %d", len(d.ends)), d.err)
		return
	}
	_, entries, code, err := s.commitPrices(h, d.rates)
	if code == http.StatusConflict {
		// Only a batch's first row can precede the feed.
		err = fmt.Errorf("price row 0: %w", err)
	}
	if err != nil {
		WriteError(w, code, "%v", err)
		return
	}
	WriteJSON(w, map[string]any{
		"ingested":     h.Rows,
		"feed_entries": entries,
	})
}

// commitPrices commits a staged prices batch to the feed under the lock
// and publishes the feed's new entry count (priceFeed.commit).
func (s *Server) commitPrices(h *BatchHeader, flat []float64) (ignored, entries, code int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ignored, entries, code, err = s.feed.commit(h, flat); err == nil {
		s.publish()
	}
	return ignored, entries, code, err
}

// --- demand ingestion / routing --------------------------------------------

// DemandPost is the JSON body of POST /v1/demand: one interval's per-state
// demand (fleet state order; GET /v1/world lists the codes). A zero At
// defaults to the engine's next expected interval. Jobs optionally
// attaches deferrable batch jobs arriving with the interval; they queue
// before the interval routes, so a job may start executing immediately.
// A row the daemon refuses queues none of its jobs. Gate is the
// interval's fleet-wide burst gate bit: a lease-fed shard needs it, any
// other daemon refuses it.
type DemandPost struct {
	At    time.Time `json:"at"`
	Rates []float64 `json:"rates"`
	Jobs  []JobPost `json:"jobs,omitempty"`
	Gate  *bool     `json:"gate,omitempty"`
}

// JobPost is one deferrable batch job in a JSON demand post.
type JobPost struct {
	// Cluster is the home cluster's code (GET /v1/world lists them).
	Cluster string `json:"cluster"`
	// DeadlineSteps is the deadline as intervals after this one; 1 means
	// the job must run entirely in the posted interval.
	DeadlineSteps int     `json:"deadline_steps"`
	EnergyKWh     float64 `json:"energy_kwh"`
	MinFraction   float64 `json:"min_fraction"`
}

// Job converts the posted job, homed at cluster index c, into the
// scheduler's form counted from its interval: arriving at step 0, due
// DeadlineSteps later. The daemon adds the step the interval routes at.
// Admission (sim.CheckJob) is the engine's, so a non-positive
// DeadlineSteps is rejected there as a deadline at or behind the cursor.
func (j JobPost) Job(c int) sched.Job {
	return sched.Job{
		Cluster:     c,
		Deadline:    j.DeadlineSteps,
		EnergyKWh:   j.EnergyKWh,
		MinFraction: j.MinFraction,
	}
}

// staged is a post read whole before the daemon takes its lock: a
// batch's rows up to its last or its first refusal, or a JSON demand post
// as a one-row batch.
type staged struct {
	start time.Time // the first row's interval; zero for the engine's next
	cols  int
	rates []float64   // row i's cells are rates[i*cols : (i+1)*cols]
	gates []bool      // row i's burst gate bit; nil on a post without gate bits
	jobs  []sched.Job // every row's jobs, counted from their row (WireJob.Job, JobPost.Job)
	ends  []int       // row i's jobs end at jobs[ends[i]]; one entry per row staged
	err   error       // the refusal that stopped staging at row len(ends), or nil
	json  bool        // a JSON post: the reply names the interval it routed
}

// stage reads a batch's rows until its last row or its first refusal.
// Its cells are sized for h.StageRows() rows and grow as rows arrive.
func stage(h *BatchHeader, rows *RowReader) *staged {
	d := &staged{start: h.Start, cols: h.Cols, rates: make([]float64, 0, h.StageRows()*h.Cols)}
	for range h.Rows {
		if d.err = rows.Next(); d.err != nil {
			break
		}
		d.rates = append(d.rates, rows.Values...)
		if h.Gates {
			d.gates = append(d.gates, rows.Gate)
		}
		for _, j := range rows.Jobs {
			d.jobs = append(d.jobs, j.Job())
		}
		d.ends = append(d.ends, len(d.jobs))
	}
	return d
}

// stageJSON stages a JSON demand post as a one-row batch, its jobs homed
// by cluster index and its "gate" the row's gate bit.
func (s *Server) stageJSON(post DemandPost) *staged {
	d := &staged{start: post.At.UTC(), cols: len(post.Rates), rates: post.Rates, json: true}
	if post.Gate != nil {
		d.gates = []bool{*post.Gate}
	}
	for i, j := range post.Jobs {
		c, err := s.fleet.Index(j.Cluster)
		if err != nil {
			d.err = fmt.Errorf("server: job %d names unknown cluster %q", i, j.Cluster)
			return d
		}
		d.jobs = append(d.jobs, j.Job(c))
	}
	d.ends = []int{len(d.jobs)}
	return d
}

// handleDemand runs the checks that need no lock, stages the post, JSON
// or binary, and routes it. No body is read under the lock, so a client
// that stalls mid-body holds up no other request.
func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	var d *staged
	if r.Header.Get("Content-Type") == ContentTypeDemandBatch {
		h, rows, err := OpenBatch(w, r, "demand")
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.gateError(h.Gates); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if h.Cols != len(s.fleet.States) {
			WriteError(w, http.StatusBadRequest, "batch has %d state columns, fleet has %d", h.Cols, len(s.fleet.States))
			return
		}
		if h.Step != s.step {
			WriteError(w, http.StatusBadRequest, "batch step %v, engine step %v", h.Step, s.step)
			return
		}
		d = stage(h, rows)
	} else {
		var post DemandPost
		if code, err := DecodeJSONBody(w, r, &post); err != nil {
			WriteError(w, code, "decoding demand post: %v", err)
			return
		}
		if err := s.gateError(post.Gate != nil); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		d = s.stageJSON(post)
	}
	s.route(w, d)
}

// gateError refuses a demand post whose gate bits do not fit the daemon:
// a lease-fed shard needs every row's bit, any other daemon takes none.
func (s *Server) gateError(gated bool) error {
	switch {
	case s.leases != nil && !gated:
		return errors.New(`server: a lease-fed shard needs each demand row's burst gate bit (a gates=1 batch or a JSON "gate")`)
	case s.leases == nil && gated:
		return errors.New("server: this daemon is not a lease-fed shard and takes no burst gate bits")
	}
	return nil
}

// route routes a staged demand post from the engine's next interval,
// under the engine lock: each row through routeOne, its jobs moved to the
// step it routes at. Rows commit as they route. A refused row, or the
// refusal that stopped staging once the rows before it have routed, is
// answered with the resume point (batchError) and commits nothing.
func (s *Server) route(w http.ResponseWriter, d *staged) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := d.start
	if at.IsZero() {
		at = s.eng.Next()
	} else if !at.Equal(s.eng.Next()) {
		WriteError(w, http.StatusConflict, "demand at %v, engine expects %v", at, s.eng.Next())
		return
	}
	lo := 0
	for i, hi := range d.ends {
		jobs := d.jobs[lo:hi]
		lo = hi
		base := s.eng.StepsRun()
		for k := range jobs {
			jobs[k].Arrival, jobs[k].Deadline = base, base+jobs[k].Deadline
		}
		var gate *bool
		if d.gates != nil {
			gate = &d.gates[i]
		}
		rates := d.rates[i*d.cols : (i+1)*d.cols]
		if code, err := s.routeOne(at.Add(time.Duration(i)*s.step), rates, jobs, gate); err != nil {
			s.batchError(w, code, i, "demand row %d: %v", i, err)
			return
		}
	}
	if d.err != nil {
		code, err := bodyError(d.err)
		s.batchError(w, code, len(d.ends), "demand row %d: %v", len(d.ends), err)
		return
	}
	resp := map[string]any{"routed": len(d.ends)}
	if d.json {
		resp["at"] = at
	}
	s.reply(w, resp)
}

// routeOne queues the interval's jobs, latches its gate bit when it
// carries one, then advances the engine one interval at `at` using the
// feed's prices (decision prices lagged by the reaction delay). The
// engine lock guards the feed too, so no price commit can land between
// an interval's bill and decision lookups. The jobs queue only after the
// row passes the checks Step would refuse it on, so a refused row
// commits none of them and a client can resend it corrected.
//
//lint:held mu callers lock s.mu around each routed interval
func (s *Server) routeOne(at time.Time, rates []float64, jobs []sched.Job, gate *bool) (int, error) {
	bill := s.feed.lookup(at)
	if bill == nil {
		return http.StatusConflict, fmt.Errorf("server: no prices ingested yet")
	}
	if len(jobs) > 0 {
		if len(rates) != len(s.fleet.States) {
			return http.StatusBadRequest, fmt.Errorf("server: %d rates for %d states", len(rates), len(s.fleet.States))
		}
		if err := sim.CheckDemand(rates); err != nil {
			return http.StatusBadRequest, err
		}
		if err := s.eng.QueueJobs(jobs); err != nil {
			return http.StatusBadRequest, err
		}
	}
	if gate != nil {
		s.leases.Set(s.eng.StepsRun(), *gate)
	}
	decision := s.feed.lookup(at.Add(-s.delay))
	if err := s.eng.Step(at, sim.StepPrices{Decision: decision, Bill: bill}, rates); err != nil {
		return http.StatusBadRequest, err
	}
	return 0, nil
}

// reply answers a demand post whose every row routed: it prunes the feed
// of the entries no future lookup can reach (older than the one covering
// the next interval's decision instant), publishes, adds the published
// step count and running bill to resp, and writes it.
//
//lint:held mu callers lock s.mu for the routed post
func (s *Server) reply(w http.ResponseWriter, resp map[string]any) {
	s.feed.prune(s.eng.Next().Add(-s.delay))
	snap := s.publish().snap
	resp["steps"] = snap.Steps
	resp["total_cost_usd"] = float64(snap.TotalCost)
	WriteJSON(w, resp)
}

// --- read endpoints --------------------------------------------------------

type clusterStatus struct {
	Code           string  `json:"code"`
	Hub            string  `json:"hub"`
	RateHits       float64 `json:"rate_hits_per_s"`
	PeakRateHits   float64 `json:"peak_rate_hits_per_s"`
	CostUSD        float64 `json:"cost_usd"`
	PeakGridKW     float64 `json:"peak_grid_kw,omitempty"`
	BatterySoCKWh  float64 `json:"battery_soc_kwh,omitempty"`
	BatchQueuedKWh float64 `json:"batch_queued_kwh,omitempty"`
	// Burst-token lease traffic, present only on burst-coordinated fleets.
	BurstTokensUsed    int `json:"burst_tokens_used,omitempty"`
	BurstTokensExpired int `json:"burst_tokens_expired,omitempty"`
}

// handleStatus renders the last published view, without the lock.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	WriteJSON(w, StatusPayload(s.fleet, v.snap, v.entries))
}

// StatusPayload renders the /v1/status response body for an engine
// snapshot. Exported for the shard coordinator, which serves the exact
// same payload from a merged fleet-wide snapshot — the byte-for-byte
// comparison the shard-merge CI gate rests on.
func StatusPayload(fleet *cluster.Fleet, snap *sim.Snapshot, feedEntries int) map[string]any {
	clusters := make([]clusterStatus, len(fleet.Clusters))
	for c, cl := range fleet.Clusters {
		cs := clusterStatus{
			Code:         cl.Code,
			Hub:          cl.HubID,
			RateHits:     snap.ClusterRate[c],
			PeakRateHits: snap.PeakRate[c],
			CostUSD:      float64(snap.ClusterCost[c]),
		}
		if snap.PeakGridKW != nil {
			cs.PeakGridKW = snap.PeakGridKW[c]
		}
		if snap.SoCKWh != nil {
			cs.BatterySoCKWh = snap.SoCKWh[c]
		}
		if snap.BatchQueuedKWh != nil {
			cs.BatchQueuedKWh = snap.BatchQueuedKWh[c]
		}
		if snap.BurstLeases != nil {
			cs.BurstTokensUsed = snap.BurstLeases[c].TokensUsed
			cs.BurstTokensExpired = snap.BurstLeases[c].TokensExpired
		}
		clusters[c] = cs
	}
	resp := map[string]any{
		"policy":               snap.Policy,
		"steps":                snap.Steps,
		"next":                 snap.Next,
		"total_cost_usd":       float64(snap.TotalCost),
		"energy_cost_usd":      float64(snap.EnergyCost),
		"demand_charge_usd":    float64(snap.DemandCharge),
		"total_energy_mwh":     snap.TotalEnergy.MegawattHours(),
		"overload_hit_seconds": snap.OverloadHitSeconds,
		"price_feed_entries":   feedEntries,
		"clusters":             clusters,
	}
	if !snap.At.IsZero() {
		resp["at"] = snap.At
	}
	if snap.SoCKWh != nil {
		resp["storage_policy"] = snap.StoragePolicy
		resp["storage_bought_kwh"] = snap.StorageBoughtKWh
		resp["storage_served_kwh"] = snap.StorageServedKWh
	}
	if snap.TotalCarbonKg != 0 {
		resp["carbon_kg"] = snap.TotalCarbonKg
	}
	if snap.BatchQueuedKWh != nil {
		var queued float64
		for _, kwh := range snap.BatchQueuedKWh {
			queued += kwh
		}
		resp["batch_queued_kwh"] = queued
		resp["batch_served_kwh"] = snap.BatchServedKWh
		resp["batch_shed_kwh"] = snap.BatchShedKWh
		resp["batch_deferred_kwh_steps"] = snap.BatchDeferredKWhSteps
	}
	if snap.BurstLeases != nil {
		var granted, used, expired int
		for _, l := range snap.BurstLeases {
			granted += l.TokensGranted
			used += l.TokensUsed
			expired += l.TokensExpired
		}
		resp["burst_leases"] = map[string]int{
			"tokens_granted": granted,
			"tokens_used":    used,
			"tokens_expired": expired,
		}
	}
	return resp
}

func (s *Server) handleAssignments(w http.ResponseWriter, r *http.Request) {
	resp := s.assignmentsPayload(r.URL.Query().Get("matrix") == "1")
	WriteJSON(w, resp)
}

// assignmentsPayload builds the assignments body under the engine lock,
// so the published view it renders is the state the matrix is copied
// from.
func (s *Server) assignmentsPayload(wantMatrix bool) map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.view.Load().snap
	var matrix [][]float64
	if wantMatrix {
		matrix = s.eng.Assignments(nil)
	}

	type row struct {
		Code     string  `json:"code"`
		RateHits float64 `json:"rate_hits_per_s"`
		Share    float64 `json:"share"`
	}
	var total float64
	for _, rate := range snap.ClusterRate {
		total += rate
	}
	clusters := make([]row, len(s.fleet.Clusters))
	for c, cl := range s.fleet.Clusters {
		share := 0.0
		if total > 0 {
			share = snap.ClusterRate[c] / total
		}
		clusters[c] = row{Code: cl.Code, RateHits: snap.ClusterRate[c], Share: share}
	}
	resp := map[string]any{
		"steps":           snap.Steps,
		"total_rate_hits": total,
		"clusters":        clusters,
	}
	if !snap.At.IsZero() {
		resp["at"] = snap.At
	}
	if matrix != nil {
		states := make([]string, len(s.fleet.States))
		for i, st := range s.fleet.States {
			states[i] = st.Code
		}
		resp["states"] = states
		resp["matrix"] = matrix
	}
	return resp
}

func (s *Server) handleWorld(w http.ResponseWriter, r *http.Request) { WriteJSON(w, s.world) }

// worldPayload renders the GET /v1/world body from the engine New is
// given and its first snapshot. A restore must match the same world
// (Restore checks the world hash), so the body never changes.
func worldPayload(eng *sim.Engine, snap *sim.Snapshot, leaseFed bool) map[string]any {
	fleet := eng.Fleet()
	type clusterInfo struct {
		Code     string  `json:"code"`
		Hub      string  `json:"hub"`
		Servers  int     `json:"servers"`
		Capacity float64 `json:"capacity_hits_per_s"`
	}
	clusters := make([]clusterInfo, len(fleet.Clusters))
	for c, cl := range fleet.Clusters {
		clusters[c] = clusterInfo{Code: cl.Code, Hub: cl.HubID, Servers: cl.Servers, Capacity: float64(cl.Capacity)}
	}
	states := make([]string, len(fleet.States))
	for i, st := range fleet.States {
		states[i] = st.Code
	}
	resp := map[string]any{
		"policy":                 snap.Policy,
		"start":                  eng.Start(),
		"step_seconds":           eng.StepSize().Seconds(),
		"reaction_delay_seconds": eng.ReactionDelay().Seconds(),
		"world_hash":             eng.WorldHash(),
		"clusters":               clusters,
		"states":                 states,
	}
	if snap.StoragePolicy != "" {
		resp["storage_policy"] = snap.StoragePolicy
	}
	if snap.BurstLeases != nil {
		// The engine meters coordinated softcap bursts; a lease-fed shard
		// also takes each demand row's gate bit with the row.
		resp["fleet_bursts"] = true
		resp["lease_broker"] = leaseFed
	}
	return resp
}
