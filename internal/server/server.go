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
// latch. A price post is read, decoded and validated before it takes the
// lock, which it holds only to commit its rows to the feed; a demand post
// holds it while its rows route, each looking up its bill and decision
// prices and stepping the engine, and a status or metrics read while it
// renders. The clients in this repository (tracegen's replay, the shard
// coordinator, the benchmark) wait for a price post's answer before they
// send the demand that reads those prices, so price commits and routing
// have little to overlap. A step-aligned feed's covering row is found by
// arithmetic checked against the stored instants. The binary batch
// bodies (see feed.go) are the high-throughput path: a batch takes the
// lock once and commits or routes thousands of intervals per request.
//
// Every demand post, JSON or binary, plain or jobs=1, routes its rows
// through routeOne and is answered by reply. A binary batch is read one
// row at a time from the request's 64 KiB buffered reader: on a gates=1
// batch the row's gate byte first, on a jobs=1 batch then its job block
// (ReadJobBlock), then its rates (DecodeRow). A lease-fed shard
// (Config.Leases) takes every row's burst gate bit with the row, on a
// gates=1 batch or as a JSON post's "gate", and latches it just before
// the row routes; any other daemon refuses gate bits. The shard
// coordinator (internal/coord) serves through the same error, JSON,
// request-count and health helpers (httpserver.go).
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
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
	eng   *sim.Engine   // guarded_by: mu
	snap  *sim.Snapshot // guarded_by: mu — reusable snapshot scratch; handlers extract what they render before unlocking
	fleet *cluster.Fleet
	step  time.Duration
	delay time.Duration

	feed     *priceFeed      // guarded_by: mu
	leases   *sim.LeaseStore // nil unless this daemon is a lease-fed shard; latched under mu, read by eng.Step
	requests Requests        // locks itself

	// scratch buffers for the demand path.
	rowBuf   []float64   // guarded_by: mu
	byteBuf  []byte      // guarded_by: mu
	wireJobs []WireJob   // guarded_by: mu — one binary row's job block
	jobBuf   []sched.Job // guarded_by: mu — decoded deferrable jobs for one row
}

// New builds a Server around an engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: config missing engine")
	}
	fleet := cfg.Engine.Fleet()
	return &Server{
		eng:    cfg.Engine,
		leases: cfg.Leases,
		fleet:  fleet,
		step:   cfg.Engine.StepSize(),
		delay:  cfg.Engine.ReactionDelay(),
		feed:   newPriceFeed(fleet),
		rowBuf: make([]float64, len(fleet.States)),
	}, nil
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
	return s.eng.Finalize()
}

// snapshot refreshes s.snap, the one snapshot the handlers reuse, and
// returns it; the caller copies out what it renders before unlocking.
//
//lint:held mu callers read the snapshot under s.mu
func (s *Server) snapshot() *sim.Snapshot {
	s.snap = s.eng.SnapshotInto(s.snap)
	return s.snap
}

// batchError reports a mid-batch demand failure. Rows before the failing
// one are already committed to the engine, so the response carries the
// routed count and the engine's next expected interval — everything a
// client needs to resume instead of replaying a now-misaligned batch.
//
//lint:held mu callers lock s.mu for the whole batch
func (s *Server) batchError(w http.ResponseWriter, code, routed int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":  fmt.Sprintf(format, args...),
		"routed": routed,
		"next":   s.eng.Next(),
	})
}

// --- price ingestion -------------------------------------------------------

// pricePost is the JSON body of POST /v1/prices: the hub prices taking
// effect at an instant. Hubs that host no cluster are ignored; every
// cluster must be covered once the overlay on the previous vector is
// applied.
type pricePost struct {
	At     time.Time          `json:"at"`
	Prices map[string]float64 `json:"prices"`
}

// batch returns the post as the one-row prices batch it commits as, its
// hubs in sorted order. One row needs no step.
func (p pricePost) batch() (*BatchHeader, []float64) {
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
	var post pricePost
	if code, err := DecodeJSONBody(w, r, &post); err != nil {
		WriteError(w, code, "decoding price post: %v", err)
		return
	}
	if post.At.IsZero() {
		WriteError(w, http.StatusBadRequest, "price post missing \"at\"")
		return
	}
	if post.At.Before(minFeedInstant) || post.At.After(maxFeedInstant) {
		WriteError(w, http.StatusBadRequest, "price post \"at\" %v is outside %v to %v",
			post.At.UTC(), minFeedInstant, maxFeedInstant)
		return
	}
	if len(post.Prices) == 0 {
		WriteError(w, http.StatusBadRequest, "price post missing \"prices\"")
		return
	}
	h, flat := post.batch()
	s.mu.Lock()
	ignored, entries, code, err := s.feed.commit(h, flat)
	s.mu.Unlock()
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
	br, h, err := OpenBatch(r, "prices")
	if err != nil {
		WriteBodyError(w, "reading price batch", err)
		return
	}
	// Stage the whole payload off the lock, then commit it atomically: a
	// batch that fails to decode or validate records nothing.
	flat, rowIdx, err := decodeRows(br, h)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "price row %d: %v", rowIdx, err)
		return
	}
	s.mu.Lock()
	_, entries, code, err := s.feed.commit(h, flat)
	s.mu.Unlock()
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
// scheduler's form for an interval routed at step base. Admission
// (sim.CheckJob) is the engine's, so a non-positive DeadlineSteps is
// rejected there as a deadline at or behind the cursor.
func (j JobPost) Job(c, base int) sched.Job {
	return sched.Job{
		Cluster:     c,
		Arrival:     base,
		Deadline:    base + j.DeadlineSteps,
		EnergyKWh:   j.EnergyKWh,
		MinFraction: j.MinFraction,
	}
}

// postedJobs converts one row's posted jobs into s.jobBuf for the
// interval the engine routes next; routeOne queues them.
//
//lint:held mu callers lock s.mu for the posting interval
func (s *Server) postedJobs(jobs []JobPost) error {
	s.jobBuf = s.jobBuf[:0]
	base := s.eng.StepsRun()
	for i, j := range jobs {
		c, err := s.fleet.Index(j.Cluster)
		if err != nil {
			return fmt.Errorf("server: job %d names unknown cluster %q", i, j.Cluster)
		}
		s.jobBuf = append(s.jobBuf, j.Job(c, base))
	}
	return nil
}

func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") == ContentTypeDemandBatch {
		br, h, err := OpenBatch(r, "demand")
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.routeBatch(w, br, h)
		return
	}
	var post DemandPost
	if code, err := DecodeJSONBody(w, r, &post); err != nil {
		WriteError(w, code, "decoding demand post: %v", err)
		return
	}
	s.routeJSON(w, post)
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

// routeJSON routes one JSON-posted interval under the engine lock and
// answers it (reply).
func (s *Server) routeJSON(w http.ResponseWriter, post DemandPost) {
	if err := s.gateError(post.Gate != nil); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	at := post.At.UTC()
	if post.At.IsZero() {
		at = s.eng.Next()
	} else if !at.Equal(s.eng.Next()) {
		WriteError(w, http.StatusConflict, "demand at %v, engine expects %v", at, s.eng.Next())
		return
	}
	if err := s.postedJobs(post.Jobs); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if code, err := s.routeOne(at, post.Rates, s.jobBuf, post.Gate); err != nil {
		WriteError(w, code, "%v", err)
		return
	}
	s.reply(w, map[string]any{"routed": 1, "at": at})
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

// routeBatch routes one binary demand batch under the engine lock, one
// row at a time through the request's buffered reader: on a gates=1
// batch the row's gate byte, on a jobs=1 batch its job block
// (ReadJobBlock), then its rates (DecodeRow), then the interval with its
// jobs and gate bit (routeOne). Rows commit as they route: a mid-batch
// failure reports the resume point (see batchError), and truncation
// after k complete rows still commits k, each with its jobs, while the
// refused row commits neither.
func (s *Server) routeBatch(w http.ResponseWriter, br *bufio.Reader, h *BatchHeader) {
	if err := s.gateError(h.Gates); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.Cols != len(s.fleet.States) {
		WriteError(w, http.StatusBadRequest, "batch has %d state columns, fleet has %d", h.Cols, len(s.fleet.States))
		return
	}
	if h.Step != s.step {
		WriteError(w, http.StatusBadRequest, "batch step %v, engine step %v", h.Step, s.step)
		return
	}
	if next := s.eng.Next(); !h.Start.Equal(next) {
		WriteError(w, http.StatusConflict, "batch starts %v, engine expects %v", h.Start, next)
		return
	}
	rowBytes := h.Cols * 8
	if cap(s.byteBuf) < rowBytes {
		s.byteBuf = make([]byte, rowBytes)
	}
	var open bool
	var gate *bool
	if h.Gates {
		gate = &open
	}
	for routed := 0; routed < h.Rows; routed++ {
		if h.Gates {
			g, err := br.ReadByte()
			if err != nil {
				s.batchError(w, http.StatusBadRequest, routed, "demand row %d: server: batch body truncated: %v", routed, err)
				return
			}
			if g > 1 {
				s.batchError(w, http.StatusBadRequest, routed, "demand row %d: gate byte %d (want 0 or 1)", routed, g)
				return
			}
			open = g == 1
		}
		s.jobBuf = s.jobBuf[:0]
		if h.Jobs {
			var err error
			if s.wireJobs, s.byteBuf, err = ReadJobBlock(br, s.wireJobs, s.byteBuf); err != nil {
				s.batchError(w, http.StatusBadRequest, routed, "demand row %d: %v", routed, err)
				return
			}
			base := s.eng.StepsRun()
			for _, wj := range s.wireJobs {
				s.jobBuf = append(s.jobBuf, wj.Job(base))
			}
		}
		b := s.byteBuf[:rowBytes]
		if _, err := io.ReadFull(br, b); err != nil {
			s.batchError(w, http.StatusBadRequest, routed, "demand row %d: server: batch body truncated: %v", routed, err)
			return
		}
		if err := DecodeRow(b, s.rowBuf); err != nil {
			s.batchError(w, http.StatusBadRequest, routed, "demand row %d: %v", routed, err)
			return
		}
		at := h.Start.Add(time.Duration(routed) * h.Step)
		if code, err := s.routeOne(at, s.rowBuf, s.jobBuf, gate); err != nil {
			s.batchError(w, code, routed, "demand row %d: %v", routed, err)
			return
		}
	}
	s.reply(w, map[string]any{"routed": h.Rows})
}

// reply answers a demand post whose every row routed: it prunes the feed
// of the entries no future lookup can reach (older than the one covering
// the next interval's decision instant), adds the engine's step count and
// running bill to resp, and writes it.
//
//lint:held mu callers lock s.mu for the routed post
func (s *Server) reply(w http.ResponseWriter, resp map[string]any) {
	s.feed.prune(s.eng.Next().Add(-s.delay))
	snap := s.snapshot()
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

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	payload := s.statusPayload()
	WriteJSON(w, payload)
}

// statusPayload renders the status body under the engine lock; the
// payload copies everything out of the snapshot scratch, so the caller
// can serialize it after the lock is released.
func (s *Server) statusPayload() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatusPayload(s.fleet, s.snapshot(), s.feed.entries())
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
// copying everything it renders out of the snapshot scratch.
func (s *Server) assignmentsPayload(wantMatrix bool) map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snapshot()
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

func (s *Server) handleWorld(w http.ResponseWriter, r *http.Request) {
	type clusterInfo struct {
		Code     string  `json:"code"`
		Hub      string  `json:"hub"`
		Servers  int     `json:"servers"`
		Capacity float64 `json:"capacity_hits_per_s"`
	}
	clusters := make([]clusterInfo, len(s.fleet.Clusters))
	for c, cl := range s.fleet.Clusters {
		clusters[c] = clusterInfo{Code: cl.Code, Hub: cl.HubID, Servers: cl.Servers, Capacity: float64(cl.Capacity)}
	}
	states := make([]string, len(s.fleet.States))
	for i, st := range s.fleet.States {
		states[i] = st.Code
	}
	policy, storagePolicy, start, worldHash, bursts := s.worldInfo()
	resp := map[string]any{
		"policy":                 policy,
		"start":                  start,
		"step_seconds":           s.step.Seconds(),
		"reaction_delay_seconds": s.delay.Seconds(),
		"world_hash":             worldHash,
		"clusters":               clusters,
		"states":                 states,
	}
	if storagePolicy != "" {
		resp["storage_policy"] = storagePolicy
	}
	if bursts {
		// The engine meters coordinated softcap bursts; a lease-fed shard
		// also takes each demand row's gate bit with the row.
		resp["fleet_bursts"] = true
		resp["lease_broker"] = s.leases != nil
	}
	WriteJSON(w, resp)
}

// worldInfo reads the routing and storage policy names, start instant,
// world hash, and burst-coordination flag under the engine lock.
func (s *Server) worldInfo() (policy, storagePolicy string, start time.Time, worldHash string, bursts bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snapshot()
	return snap.Policy, snap.StoragePolicy, s.eng.Start(), s.eng.WorldHash(), snap.BurstLeases != nil
}
