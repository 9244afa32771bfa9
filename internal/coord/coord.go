// Package coord is the multi-region shard coordinator: the fleet-wide
// face of N powerrouted instances, one per electricity market region.
// The regions are the joint world's routing partition
// (sim.PartitionByRouting), a pure function of the world, so the
// coordinator derives every shard's clusters, states and hubs from it
// and only checks, at New, that shard i's /v1/world serves region i: its
// clusters, its states and its world hash.
//
// Ingest fans out. A binary price batch is split by hub, each shard
// receiving only the columns of the hubs its clusters sit on, and a JSON
// price post, admitted by the daemon's own server.DecodePricePost, is
// forwarded to every shard, which ignores the hubs it hosts no cluster
// on. A demand post (JSON or binary batch) is split by state ownership,
// each shard receiving exactly its own states' columns. Batch rows are
// read through the daemon's server.RowReader and streamed row by row
// into the shard bodies, each cell copied as it arrived, never
// re-encoded. Deferrable batch jobs riding a demand post go to the shard
// that owns their home cluster. Every batch row (finite and within
// sim.MaxMagnitude, read whole), every JSON price post, every full demand
// row (sim.CheckDemand) and every job (sim.CheckJob) is admitted before
// any shard is posted to, so a bad row, post or job can never leave the
// shards at different step cursors or feeds.
//
// Reads fan in, and every read pulls: for each /v1/status and /metrics
// read the coordinator pulls every shard's durable checkpoint, merges
// them with sim.MergeCheckpoints under the parent world hash, restores
// the merged state into a joint-world engine, and serves that snapshot —
// the same payloads a single powerrouted serving the whole world would
// produce, bit for bit. It keeps only the newest snapshot a read merged,
// as the fallback a read serves, marked X-Coord-Degraded, when its own
// pull fails.
//
// Every request to a shard — New's GET /v1/world, the ingest
// fan-out and the checkpoint pull — goes through one call, so a shard
// that cannot be reached fails with ErrShardUnreachable and one that
// answers an error is reported with its status and message, the same way
// on every path. The coordinator answers its own clients through the
// daemon's helpers (server.WriteError, server.WriteJSON, server.Requests,
// server.Healthz).
//
// When the joint world runs a coordinated 95/5 burst gate (a soft-capped
// scenario with a BurstGate), the coordinator is also the burst-token
// lease broker: it resolves each demand row's fleet-wide gate bit from the
// full row — the one comparison no single shard can make — and sends it
// with every shard's share of that row (a gates=1 batch, or a JSON
// sub-post's "gate"), so the shards' burst ledgers replay exactly the
// joint engine's and a demand post costs one request per shard. Clients
// never send gate bits themselves.
//
//	POST /v1/prices      split a price batch by hub; check a JSON price post, then forward it to every shard
//	POST /v1/demand      split demand (and jobs) by ownership and fan out
//	GET  /v1/status      fleet-wide status, pulled and merged for the read
//	GET  /v1/checkpoint  pull, merge, and stream the joint-world checkpoint
//	GET  /v1/world       the joint world description
//	GET  /metrics        fleet-wide Prometheus metrics, pulled and merged for the read
//	GET  /healthz        liveness probe
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"powerroute/internal/cluster"
	"powerroute/internal/routing"
	"powerroute/internal/sched"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// ErrShardUnreachable tags fan-out and pull failures caused by a shard
// that cannot be reached at all (daemon down, connection refused), as
// opposed to a shard that answered with an application error.
var ErrShardUnreachable = errors.New("coord: shard unreachable")

// Config assembles a Coordinator.
type Config struct {
	// Scenario is the joint world the shards partition. The coordinator
	// never steps it; it is the restore target for merged checkpoints and
	// the source of the parent world hash shards must belong to.
	Scenario sim.Scenario
	// ShardURLs are the powerrouted base URLs, one per shard.
	ShardURLs []string
	// Client overrides the HTTP client used to reach shards.
	Client *http.Client
}

// shardInfo is one shard: region i of the joint world's routing
// partition (its clusters are recorded per cluster in
// Coordinator.clusterShard).
type shardInfo struct {
	url    string
	states []int // fleet state indices, ascending
}

// Coordinator fans ingest out to shards and merges their state back into
// fleet-wide views.
type Coordinator struct {
	sc        sim.Scenario
	fleet     *cluster.Fleet
	worldHash string
	client    *http.Client
	shards    []shardInfo

	// Job routing, read-only after New: clusterShard and clusterLocal map
	// a joint cluster index to its owning shard and to its index in that
	// shard's engine, the cluster's position in its region's ascending
	// cluster list.
	clusterShard []int
	clusterLocal []int

	// Price routing, read-only after New: hubShards maps a hub ID to the
	// shards hosting at least one cluster on it.
	hubShards map[string][]int

	// Burst-token broker state, armed when the joint world runs a
	// coordinated burst gate: room is the fleet's soft-capped total (a
	// run constant summed in fleet cluster order, exactly like the joint
	// engine's), the input to every row's gate bit.
	broker bool
	room   float64

	// newest is the newest snapshot, by Steps, that any read merged: what
	// a read answers, marked degraded, when its own pull fails.
	mu     sync.Mutex
	newest *sim.Snapshot // guarded_by: mu

	requests server.Requests // locks itself
}

// New builds a coordinator for the joint world. Its shards are the
// regions of the world's routing partition (sim.PartitionByRouting), so
// the policy must be shardable and ShardURLs[i] must serve region i:
// New checks that each shard's /v1/world lists exactly that region's
// clusters and states in fleet order and reports the world hash of the
// region's sub-scenario (Scenario.Shard).
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	if len(cfg.ShardURLs) == 0 {
		return nil, errors.New("coord: no shard URLs")
	}
	hash, err := cfg.Scenario.WorldHash()
	if err != nil {
		return nil, fmt.Errorf("coord: joint world: %w", err)
	}
	sharder, ok := cfg.Scenario.Policy.(routing.Sharder)
	if !ok {
		return nil, fmt.Errorf("coord: policy %s does not split into market regions", cfg.Scenario.Policy.Name())
	}
	// The partition is a pure function of the joint world, so a wrong URL
	// count is refused before any shard is contacted.
	p, err := sim.PartitionByRouting(sharder, cfg.Scenario.Fleet)
	if err != nil {
		return nil, fmt.Errorf("coord: joint world: %w", err)
	}
	if p.Shards() != len(cfg.ShardURLs) {
		return nil, fmt.Errorf("coord: %d shard URLs for a world that splits into %d market regions at this policy's reach",
			len(cfg.ShardURLs), p.Shards())
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	nc := len(cfg.Scenario.Fleet.Clusters)
	co := &Coordinator{
		sc:           cfg.Scenario,
		fleet:        cfg.Scenario.Fleet,
		worldHash:    hash,
		client:       client,
		shards:       make([]shardInfo, p.Shards()),
		clusterShard: make([]int, nc),
		clusterLocal: make([]int, nc),
		hubShards:    make(map[string][]int),
	}
	for i, url := range cfg.ShardURLs {
		co.shards[i] = shardInfo{url: url, states: p.States[i]}
		for local, c := range p.Clusters[i] {
			co.clusterShard[c], co.clusterLocal[c] = i, local
			if hub := co.fleet.Clusters[c].HubID; !slices.Contains(co.hubShards[hub], i) {
				co.hubShards[hub] = append(co.hubShards[hub], i)
			}
		}
	}
	if cfg.Scenario.BurstGate != nil {
		room, err := sim.BurstRoomTotal(cfg.Scenario.Fleet, cfg.Scenario.SoftCaps)
		if err != nil {
			return nil, fmt.Errorf("coord: burst broker: %w", err)
		}
		co.broker = true
		co.room = room
	}
	regions, err := cfg.Scenario.Shard(p)
	if err != nil {
		return nil, fmt.Errorf("coord: joint world: %w", err)
	}
	for i, region := range regions {
		if err := co.checkShard(ctx, i, region); err != nil {
			return nil, err
		}
	}
	return co, nil
}

// shardWorld is the slice of a shard's /v1/world the coordinator checks.
type shardWorld struct {
	WorldHash   string `json:"world_hash"`
	LeaseBroker bool   `json:"lease_broker"`
	Clusters    []struct {
		Code string `json:"code"`
	} `json:"clusters"`
	States []string `json:"states"`
}

// checkShard refuses shard i unless its /v1/world serves exactly region
// i of the joint world: the region's clusters and states in fleet order,
// and the region's world hash, which covers the market's prices, the
// horizon, the policy, the step and reaction delay, and every per-cluster
// configuration. The hash leaves out the burst gate, so a shard must
// also take gate bits when the joint world brokers them.
func (co *Coordinator) checkShard(ctx context.Context, i int, region sim.Scenario) error {
	url := co.shards[i].url
	var world shardWorld
	if err := co.call(ctx, http.MethodGet, url, "/v1/world", "", nil, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&world)
	}); err != nil {
		return fmt.Errorf("coord: shard check: %w", err)
	}
	var got, want, wantStates []string
	for _, cl := range world.Clusters {
		got = append(got, cl.Code)
	}
	for _, cl := range region.Fleet.Clusters {
		want = append(want, cl.Code)
	}
	for _, st := range region.Fleet.States {
		wantStates = append(wantStates, st.Code)
	}
	if !slices.Equal(got, want) || !slices.Equal(world.States, wantStates) {
		return fmt.Errorf("coord: shard %s serves clusters %v and %d states, not region %d of the joint world (clusters %v and %d states): list -shards in -shard-index order",
			url, got, len(world.States), i, want, len(wantStates))
	}
	hash, err := region.WorldHash()
	if err != nil {
		return fmt.Errorf("coord: region %d: %w", i, err)
	}
	if world.WorldHash != hash {
		return fmt.Errorf("coord: shard %s runs world %s, region %d of the joint world is %s (start every daemon with the same world flags)",
			url, world.WorldHash, i, hash)
	}
	if co.broker && !world.LeaseBroker {
		return fmt.Errorf("coord: the joint world runs a coordinated burst gate but shard %s takes no burst gate bits (start it with matching -burst-hubs and -shard-count flags)", url)
	}
	return nil
}

// Shards returns the shard URLs, shard i serving region i.
func (co *Coordinator) Shards() []string {
	urls := make([]string, len(co.shards))
	for i, sh := range co.shards {
		urls[i] = sh.url
	}
	return urls
}

// Handler returns the coordinator's HTTP routes.
func (co *Coordinator) Handler() http.Handler {
	count := co.requests.Count
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/prices", count("prices", co.handlePrices))
	mux.HandleFunc("POST /v1/demand", count("demand", co.handleDemand))
	mux.HandleFunc("GET /v1/status", count("status", co.handleStatus))
	mux.HandleFunc("GET /v1/checkpoint", count("checkpoint", co.handleCheckpoint))
	mux.HandleFunc("GET /v1/world", count("world", co.handleWorld))
	mux.HandleFunc("GET /metrics", count("metrics", co.handleMetrics))
	mux.HandleFunc("GET /healthz", count("healthz", server.Healthz))
	return mux
}

// call sends one request to a shard (a nil body sends none) and hands a
// 2xx answer's body to read; a nil read discards it. A shard that cannot
// be reached at all fails with ErrShardUnreachable; one that answers
// outside 2xx fails with its status and the first 4 KiB of its error
// body.
func (co *Coordinator) call(ctx context.Context, method, url, path, contentType string, body []byte, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+path, rd)
	if err != nil {
		return fmt.Errorf("shard %s: %w", url, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w %s: %v", ErrShardUnreachable, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("shard %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if read == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("shard %s: %w", url, err)
	}
	return nil
}

// eachShard runs f for every shard concurrently and joins the failures.
func (co *Coordinator) eachShard(f func(i int, url string) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(co.shards))
	for i, sh := range co.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, sh.url)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fanOut posts bodies[i] to shard i, all concurrently, and collects the
// failures. Shards commit independently: when some fail, the others have
// still ingested — exactly like a mid-batch error on a single daemon —
// and the caller reports which shards diverged so the feeder can resync
// them.
func (co *Coordinator) fanOut(ctx context.Context, path, contentType string, bodies [][]byte) error {
	return co.eachShard(func(i int, url string) error {
		return co.call(ctx, http.MethodPost, url, path, contentType, bodies[i], nil)
	})
}

// handlePrices forwards a JSON price post to every shard — each shard
// overlays the hubs it hosts and ignores the rest — and splits a binary
// batch by hub (handlePricesBatch). A JSON post is admitted by the
// shards' own decode-and-check (server.DecodePricePost), so one they
// would refuse is answered 413 or 400 here with their message before any
// shard sees it, and the decoded post is what every shard receives.
func (co *Coordinator) handlePrices(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") == server.ContentTypePricesBatch {
		co.handlePricesBatch(w, r)
		return
	}
	post, code, err := server.DecodePricePost(w, r)
	if err != nil {
		server.WriteError(w, code, "%v", err)
		return
	}
	body, err := json.Marshal(post)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	bodies := slices.Repeat([][]byte{body}, len(co.shards))
	if err := co.fanOut(r.Context(), "/v1/prices", "application/json", bodies); err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, map[string]any{"shards": len(co.shards)})
}

// handlePricesBatch splits a binary price batch by hub: each shard
// receives a batch with the same horizon but only the columns of the hubs
// its clusters sit on, in the batch's order, each 8-byte cell copied as it
// arrived. A shard hosting none of the batch's hubs receives the first
// column, which its feed ignores, so it records the same entries, or
// reports the same coverage gap, as it would for the whole batch. Every
// row is read (server.RowReader) before any shard is posted to, so a
// non-finite value is refused here with 400 even in a column no shard
// hosts, and a header declaring more than server.MaxBatchBody bytes of
// rows with 413, as a shard would.
func (co *Coordinator) handlePricesBatch(w http.ResponseWriter, r *http.Request) {
	h, rows, err := server.OpenBatch(w, r, "prices")
	if err != nil {
		server.WriteBodyError(w, "reading price batch", err)
		return
	}
	cols := make([][]int, len(co.shards))
	for col, hub := range h.Hubs {
		for _, sh := range co.hubShards[hub] {
			cols[sh] = append(cols[sh], col)
		}
	}
	bodies := make([][]byte, len(co.shards))
	sub := *h
	for i := range co.shards {
		if len(cols[i]) == 0 {
			cols[i] = []int{0}
		}
		sub.Cols = len(cols[i])
		sub.Hubs = make([]string, sub.Cols)
		for k, col := range cols[i] {
			sub.Hubs[k] = h.Hubs[col]
		}
		bodies[i] = shardBody(&sub, 8*sub.Cols)
	}
	for i := range h.Rows {
		if err := rows.Next(); err != nil {
			server.WriteBodyError(w, fmt.Sprintf("price row %d", i), err)
			return
		}
		for j := range bodies {
			bodies[j] = appendCells(bodies[j], rows.Cells, cols[j])
		}
	}
	if err := co.fanOut(r.Context(), "/v1/prices", server.ContentTypePricesBatch, bodies); err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, map[string]any{"shards": len(co.shards)})
}

// shardBody starts one shard's batch body: h's header line, with room
// for the rows a replay chunk carries at rowBytes each.
func shardBody(h *server.BatchHeader, rowBytes int) []byte {
	var hb bytes.Buffer
	_ = h.Write(&hb) // a bytes.Buffer never fails a write
	return append(make([]byte, 0, hb.Len()+h.StageRows()*rowBytes), hb.Bytes()...)
}

// appendCells appends the 8-byte cells of an encoded batch row at columns
// cols, in that order, to b: one shard's share of the row, copied without
// re-encoding.
func appendCells(b, row []byte, cols []int) []byte {
	for _, c := range cols {
		b = append(b, row[8*c:8*c+8]...)
	}
	return b
}

// onGrid refuses a demand instant off the joint world's step grid: no
// shard could route it, and refused here it reaches none of them.
func (co *Coordinator) onGrid(at time.Time) error {
	if off := at.Sub(co.sc.Start); off < 0 || off%co.sc.Step != 0 {
		return fmt.Errorf("demand at %v is not on the joint world's %v grid from %v", at, co.sc.Step, co.sc.Start)
	}
	return nil
}

// checkJob admits one job before fan-out with the engine's own rule
// (sim.CheckJob). Deadlines are still relative to the posted row, so
// the cursor is 0; the shard converts them to absolute steps itself.
func (co *Coordinator) checkJob(j sched.Job) error {
	if co.sc.Batch == nil {
		return errors.New("is posted to a world with no batch class")
	}
	return sim.CheckJob(j, len(co.fleet.Clusters), 0)
}

func (co *Coordinator) handleDemand(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") == server.ContentTypeDemandBatch {
		co.handleDemandBatch(w, r)
		return
	}
	var post server.DemandPost
	if code, err := server.DecodeJSONBody(w, r, &post); err != nil {
		server.WriteError(w, code, "decoding demand post: %v", err)
		return
	}
	if post.Gate != nil {
		server.WriteError(w, http.StatusBadRequest, "demand post carries \"gate\": the coordinator derives every row's gate bit itself")
		return
	}
	if len(post.Rates) != len(co.fleet.States) {
		server.WriteError(w, http.StatusBadRequest, "%d rates for %d states", len(post.Rates), len(co.fleet.States))
		return
	}
	if err := sim.CheckDemand(post.Rates); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !post.At.IsZero() {
		if err := co.onGrid(post.At); err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	// Jobs name their home cluster by code, which every shard resolves
	// itself; the coordinator only picks the owning shard.
	jobs := make([][]server.JobPost, len(co.shards))
	for i, jp := range post.Jobs {
		c, err := co.fleet.Index(jp.Cluster)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "job %d names unknown cluster %q", i, jp.Cluster)
			return
		}
		if err := co.checkJob(jp.Job(c)); err != nil {
			server.WriteError(w, http.StatusBadRequest, "job %d %v", i, err)
			return
		}
		sh := co.clusterShard[c]
		jobs[sh] = append(jobs[sh], jp)
	}
	var gate *bool
	if co.broker {
		open := sim.BurstGateOpen(sim.SumDemand(post.Rates), co.room)
		gate = &open
	}
	bodies := make([][]byte, len(co.shards))
	for i, sh := range co.shards {
		sub := server.DemandPost{At: post.At, Rates: make([]float64, len(sh.states)), Jobs: jobs[i], Gate: gate}
		for j, s := range sh.states {
			sub.Rates[j] = post.Rates[s]
		}
		b, err := json.Marshal(sub)
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		bodies[i] = b
	}
	if err := co.fanOut(r.Context(), "/v1/demand", "application/json", bodies); err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, map[string]any{"routed": 1, "shards": len(co.shards)})
}

// handleDemandBatch splits a binary demand batch by state ownership: each
// shard receives a batch with the same horizon but only its own states'
// columns (appendCells), posted concurrently. In a jobs=1 batch every
// shard row also carries a job block, empty when none of the row's jobs
// is homed on that shard, with each job's joint cluster index rewritten
// to the shard's. On a brokered world every shard batch is gates=1, each
// row led by the gate byte derived from the full row.
func (co *Coordinator) handleDemandBatch(w http.ResponseWriter, r *http.Request) {
	h, rows, err := server.OpenBatch(w, r, "demand")
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ns := len(co.fleet.States)
	if h.Cols != ns {
		server.WriteError(w, http.StatusBadRequest, "batch has %d state columns, fleet has %d", h.Cols, ns)
		return
	}
	if h.Gates {
		server.WriteError(w, http.StatusBadRequest, "batch carries gates=1: the coordinator derives every row's gate bit itself")
		return
	}
	if h.Step != co.sc.Step {
		server.WriteError(w, http.StatusBadRequest, "batch steps %v, joint world steps %v", h.Step, co.sc.Step)
		return
	}
	if err := co.onGrid(h.Start); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bodies := make([][]byte, len(co.shards))
	sub := *h
	sub.Gates = co.broker
	for i, sh := range co.shards {
		// Each row carries 8 bytes per owned state, plus a job block of at
		// least its 4-byte count on a jobs=1 batch and a gate byte on a
		// brokered world.
		sub.Cols = len(sh.states)
		rowBytes := 8 * sub.Cols
		if sub.Jobs {
			rowBytes += 4
		}
		if sub.Gates {
			rowBytes++
		}
		bodies[i] = shardBody(&sub, rowBytes)
	}
	shardJobs := make([][]server.WireJob, len(co.shards))
	for i := range h.Rows {
		if err := rows.Next(); err != nil {
			server.WriteBodyError(w, fmt.Sprintf("demand row %d", i), err)
			return
		}
		for k, wj := range rows.Jobs {
			if err := co.checkJob(wj.Job()); err != nil {
				server.WriteError(w, http.StatusBadRequest, "demand row %d: job %d %v", i, k, err)
				return
			}
			c := int(wj.Cluster)
			wj.Cluster = uint32(co.clusterLocal[c])
			shardJobs[co.clusterShard[c]] = append(shardJobs[co.clusterShard[c]], wj)
		}
		if err := sim.CheckDemand(rows.Values); err != nil {
			server.WriteError(w, http.StatusBadRequest, "demand row %d: %v", i, err)
			return
		}
		var gate byte
		if co.broker && sim.BurstGateOpen(sim.SumDemand(rows.Values), co.room) {
			gate = 1
		}
		for j, sh := range co.shards {
			if co.broker {
				bodies[j] = append(bodies[j], gate)
			}
			if h.Jobs {
				bodies[j] = server.AppendJobs(bodies[j], shardJobs[j])
				shardJobs[j] = shardJobs[j][:0]
			}
			bodies[j] = appendCells(bodies[j], rows.Cells, sh.states)
		}
	}
	if err := co.fanOut(r.Context(), "/v1/demand", server.ContentTypeDemandBatch, bodies); err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, map[string]any{"routed": h.Rows, "shards": len(co.shards)})
}

// pullMerge fetches every shard's checkpoint and merges them into the
// joint world's.
func (co *Coordinator) pullMerge(ctx context.Context) (*sim.Checkpoint, error) {
	parts := make([]*sim.Checkpoint, len(co.shards))
	if err := co.eachShard(func(i int, url string) error {
		return co.call(ctx, http.MethodGet, url, "/v1/checkpoint", "", nil, func(r io.Reader) (err error) {
			parts[i], err = sim.DecodeCheckpoint(r)
			return err
		})
	}); err != nil {
		return nil, err
	}
	merged, err := sim.MergeCheckpoints(parts)
	if err != nil {
		return nil, err
	}
	if merged.WorldHash != co.worldHash {
		return nil, fmt.Errorf("coord: shards belong to world %s, coordinator runs %s (flag mismatch?)", merged.WorldHash, co.worldHash)
	}
	return merged, nil
}

// pullMergeSettled is pullMerge with a few retries when the shards are
// mid-ingest: concurrent demand fan-out commits shard batches at slightly
// different instants, so two pulls can catch them one batch apart. That
// state is transient (sim.ErrShardCursorMismatch), not a topology error —
// re-pull instead of failing the read.
func (co *Coordinator) pullMergeSettled(ctx context.Context) (*sim.Checkpoint, error) {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(attempt) * 50 * time.Millisecond):
			}
		}
		var merged *sim.Checkpoint
		if merged, err = co.pullMerge(ctx); err == nil {
			return merged, nil
		}
		if !errors.Is(err, sim.ErrShardCursorMismatch) {
			return nil, err
		}
	}
	return nil, err
}

// read pulls, merges and restores the fleet-wide snapshot a status or
// metrics read renders, keeping it when it is the newest any read has
// merged. When the pull fails (a shard down mid-replay, say) the read
// answers that newest snapshot, marked with an X-Coord-Degraded header
// naming the failure; while no read has merged, it answers 502 and
// returns nil.
func (co *Coordinator) read(w http.ResponseWriter, r *http.Request) *sim.Snapshot {
	var snap *sim.Snapshot
	merged, err := co.pullMergeSettled(r.Context())
	if err == nil {
		var eng *sim.Engine
		if eng, err = sim.Restore(co.sc, merged); err == nil {
			snap = eng.Snapshot()
		}
	}
	co.mu.Lock()
	if snap != nil && (co.newest == nil || snap.Steps >= co.newest.Steps) {
		co.newest = snap
	}
	newest := co.newest
	co.mu.Unlock()
	switch {
	case snap != nil:
		return snap
	case newest == nil:
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return nil
	}
	w.Header().Set("X-Coord-Degraded", err.Error())
	return newest
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if snap := co.read(w, r); snap != nil {
		server.WriteJSON(w, server.StatusPayload(co.fleet, snap, 0))
	}
}

func (co *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	merged, err := co.pullMergeSettled(r.Context())
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := merged.Encode(&buf); err != nil {
		server.WriteError(w, http.StatusInternalServerError, "encoding merged checkpoint: %v", err)
		return
	}
	w.Header().Set("Content-Type", server.ContentTypeCheckpoint)
	_, _ = w.Write(buf.Bytes())
}

func (co *Coordinator) handleWorld(w http.ResponseWriter, r *http.Request) {
	type clusterInfo struct {
		Code     string  `json:"code"`
		Hub      string  `json:"hub"`
		Servers  int     `json:"servers"`
		Capacity float64 `json:"capacity_hits_per_s"`
		Shard    string  `json:"shard"`
	}
	clusters := make([]clusterInfo, len(co.fleet.Clusters))
	for c, cl := range co.fleet.Clusters {
		clusters[c] = clusterInfo{Code: cl.Code, Hub: cl.HubID, Servers: cl.Servers,
			Capacity: float64(cl.Capacity), Shard: co.shards[co.clusterShard[c]].url}
	}
	states := make([]string, len(co.fleet.States))
	for i, st := range co.fleet.States {
		states[i] = st.Code
	}
	server.WriteJSON(w, map[string]any{
		"policy":                 co.sc.Policy.Name(),
		"start":                  co.sc.Start,
		"step_seconds":           co.sc.Step.Seconds(),
		"reaction_delay_seconds": co.sc.ReactionDelay.Seconds(),
		"world_hash":             co.worldHash,
		"shards":                 co.Shards(),
		"lease_broker":           co.broker,
		"clusters":               clusters,
		"states":                 states,
	})
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if snap := co.read(w, r); snap != nil {
		w.Header().Set("Content-Type", server.MetricsContentType)
		_, _ = w.Write([]byte(server.MetricsText(co.fleet, snap, 0, co.requests.Counts())))
	}
}
