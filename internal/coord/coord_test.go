package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"powerroute/internal/batchspec"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// testWorld builds the small deterministic world (1-month market, 7-day
// trace) with an optimizer reach of 1000 km, which splits the fleet into
// two market regions (California vs everything east).
func testWorld(t testing.TB) (*core.System, sim.Scenario) {
	t.Helper()
	return seededWorld(t, 42)
}

// seededWorld is testWorld's world generated from another seed.
func seededWorld(t testing.TB, seed int64) (*core.System, sim.Scenario) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: seed, MarketMonths: 1, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := routing.NewPriceOptimizer(sys.Fleet, 1000, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sim.Scenario{
		Fleet:         sys.Fleet,
		Policy:        opt,
		Energy:        energy.OptimisticFuture,
		Market:        sys.Market,
		Demand:        sys.LongRun,
		Start:         sys.Market.Start,
		Steps:         sys.Market.Hours,
		Step:          time.Hour,
		ReactionDelay: sim.DefaultReactionDelay,
	}
}

// newShards splits sc into its routing components and serves each from a
// real server.Server behind httptest.
func newShards(t testing.TB, sc sim.Scenario) []string {
	t.Helper()
	p, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(subs))
	for i, sub := range subs {
		eng, err := sim.NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

func newCoordinator(t testing.TB, sc sim.Scenario, urls []string) (*Coordinator, *httptest.Server) {
	t.Helper()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return co, ts
}

func postBody(t *testing.T, url, contentType string, body []byte, wantCode int) []byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: got %d want %d: %s", url, resp.StatusCode, wantCode, out)
	}
	return out
}

func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: got %d want %d: %s", url, resp.StatusCode, wantCode, out)
	}
	return out
}

// feedWorld streams `hours` of generated prices and long-run demand into
// baseURL as binary batches, exactly as the replay load generator does.
func feedWorld(t *testing.T, sys *core.System, sc sim.Scenario, baseURL string, hours int) {
	t.Helper()
	feedPrices(t, sys, sc, baseURL, hours)
	ns := len(sc.Fleet.States)
	var db bytes.Buffer
	if err := server.WriteBatchHeader(&db, "demand", sc.Start, sc.Step, hours, ns, nil); err != nil {
		t.Fatal(err)
	}
	var demand []float64
	for i := 0; i < hours; i++ {
		demand = sc.Demand.Rates(sc.Start.Add(time.Duration(i)*sc.Step), demand)
		db.Write(server.AppendRow(nil, demand))
	}
	postBody(t, baseURL+"/v1/demand", server.ContentTypeDemandBatch, db.Bytes(), http.StatusOK)
}

// marketHubs returns the IDs of the world's market hubs, in market order.
func marketHubs(sys *core.System) []string {
	var ids []string
	for _, h := range sys.Market.Hubs() {
		ids = append(ids, h.ID)
	}
	return ids
}

// feedPrices posts `hours` of generated hub prices as one binary batch.
func feedPrices(t *testing.T, sys *core.System, sc sim.Scenario, baseURL string, hours int) {
	t.Helper()
	hubs := sys.Market.Hubs()
	hubIDs := marketHubs(sys)
	var pb bytes.Buffer
	if err := server.WriteBatchHeader(&pb, "prices", sc.Start, sc.Step, hours, len(hubIDs), hubIDs); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(hubIDs))
	for i := 0; i < hours; i++ {
		at := sc.Start.Add(time.Duration(i) * sc.Step)
		for j, h := range hubs {
			rt, err := sys.Market.RT(h.ID)
			if err != nil {
				t.Fatal(err)
			}
			v, err := rt.At(at)
			if err != nil {
				t.Fatal(err)
			}
			row[j] = v
		}
		pb.Write(server.AppendRow(nil, row))
	}
	postBody(t, baseURL+"/v1/prices", server.ContentTypePricesBatch, pb.Bytes(), http.StatusOK)
}

// TestCoordinatorMatchesSingleInstance feeds the same price and demand
// batches through the coordinator (fanning out to two real shard daemons)
// and through one single-instance daemon serving the unsplit world, then
// requires the fleet-wide /v1/status to match bit for bit (modulo the
// price_feed_entries bookkeeping, which is per-process).
func TestCoordinatorMatchesSingleInstance(t *testing.T) {
	sys, sc := testWorld(t)
	const hours = 14 * 24

	// Single instance.
	singleEng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	singleSrv, err := server.New(server.Config{Engine: singleEng})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(singleSrv.Handler())
	defer single.Close()
	feedWorld(t, sys, sc, single.URL, hours)

	// Coordinator over two shards.
	_, scForShards := testWorld(t)
	urls := newShards(t, scForShards)
	if len(urls) != 2 {
		t.Fatalf("expected 2 shards, got %d", len(urls))
	}
	_, coordTS := newCoordinator(t, sc, urls)
	feedWorld(t, sys, sc, coordTS.URL, hours)

	normalize := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "price_feed_entries")
		return m
	}
	want := normalize(get(t, single.URL+"/v1/status", http.StatusOK))
	got := normalize(get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK))
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("coordinator status differs from single instance:\ncoord  %s\nsingle %s", gotJSON, wantJSON)
	}

	// The merged checkpoint is the unsplit daemon's, byte for byte, and
	// restores into the joint world at the same cursor.
	raw := get(t, coordTS.URL+"/v1/checkpoint", http.StatusOK)
	if !bytes.Equal(raw, get(t, single.URL+"/v1/checkpoint", http.StatusOK)) {
		t.Fatal("merged checkpoint differs from the single instance's")
	}
	cp, err := sim.DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if cp.StepsRun != hours {
		t.Fatalf("merged checkpoint at step %d, want %d", cp.StepsRun, hours)
	}
	if _, err := sim.Restore(sc, cp); err != nil {
		t.Fatalf("merged checkpoint does not restore into the joint world: %v", err)
	}

	// Metrics render from the merged snapshot.
	metrics := string(get(t, coordTS.URL+"/metrics", http.StatusOK))
	if !bytes.Contains([]byte(metrics), []byte("powerrouted_steps_total")) {
		t.Fatalf("metrics missing steps counter:\n%s", metrics)
	}

	// JSON single-step demand also fans out (after one more price post the
	// shards can cover the next hour). A job riding it is refused first:
	// this world has no batch class, and no shard may route the row.
	at := sc.Start.Add(time.Duration(hours) * sc.Step)
	var demand []float64
	demand = sc.Demand.Rates(at, demand)
	job := server.JobPost{Cluster: sc.Fleet.Clusters[0].Code, DeadlineSteps: 4, EnergyKWh: 10}
	body, _ := json.Marshal(server.DemandPost{At: at, Rates: demand, Jobs: []server.JobPost{job}})
	if out := postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusBadRequest); !strings.Contains(string(out), "no batch class") {
		t.Fatalf("job for a batch-free world: %s", out)
	}
	body, _ = json.Marshal(server.DemandPost{At: at, Rates: demand})
	postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusOK)
}

// burstWorld assembles the burst-exact clique world (2 regions at
// 1000 km) and its joint scenario, burst gate armed as sim.SelfGate: the
// configuration under which sharded replays stay byte-identical even
// while soft-cap bursts fire.
func burstWorld(t testing.TB) (*core.System, *core.BurstWorld, sim.Scenario) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: 42, MarketMonths: 1, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := core.ParseBurstHubs("NP15+SP15,NYC+DOM")
	if err != nil {
		t.Fatal(err)
	}
	bw, err := sys.BurstWorld(pairs, 1000, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.BurstScenario(bw, 1000, routing.DefaultPriceThreshold, sim.DefaultReactionDelay)
	if err != nil {
		t.Fatal(err)
	}
	return sys, bw, sc
}

// newBurstShards carves the burst scenario into lease-fed shard daemons:
// each sub-engine reads its gate bits from a LeaseStore the daemon
// latches every demand row's gate bit into.
func newBurstShards(t testing.TB, sc sim.Scenario) []string {
	t.Helper()
	p, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(subs))
	for i, sub := range subs {
		store := &sim.LeaseStore{}
		sub.BurstGate = store
		eng, err := sim.NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng, Leases: store})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// TestCoordinatorBurstLeaseBroker is the fleet-exact burst guarantee at
// the coordinator layer: an active-burst horizon fanned out through the
// coordinator (which derives each demand row's gate bit from the full row
// and sends it with the row) must produce the same fleet-wide status,
// byte for byte, as one daemon serving the unsplit world under SelfGate —
// with burst tokens genuinely granted and spent.
func TestCoordinatorBurstLeaseBroker(t *testing.T) {
	sys, _, jointSc := burstWorld(t)
	hours := jointSc.Steps - 1

	singleEng, err := sim.NewEngine(jointSc)
	if err != nil {
		t.Fatal(err)
	}
	singleSrv, err := server.New(server.Config{Engine: singleEng})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(singleSrv.Handler())
	defer single.Close()
	feedWorld(t, sys, jointSc, single.URL, hours)

	_, _, shardSc := burstWorld(t)
	urls := newBurstShards(t, shardSc)
	if len(urls) != 2 {
		t.Fatalf("expected 2 shards, got %d", len(urls))
	}
	_, _, coordSc := burstWorld(t)
	_, coordTS := newCoordinator(t, coordSc, urls)
	feedWorld(t, sys, coordSc, coordTS.URL, hours)

	// The JSON single-step path brokers too: one more interval, posted as
	// a JSON demand vector, must carry its gate bit with the demand.
	at := jointSc.Start.Add(time.Duration(hours) * jointSc.Step)
	var row []float64
	row = jointSc.Demand.Rates(at, row)
	body, _ := json.Marshal(map[string]any{"at": at, "rates": row})
	postBody(t, single.URL+"/v1/demand", "application/json", body, http.StatusOK)
	postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusOK)

	normalize := func(raw []byte) ([]byte, map[string]any) {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "price_feed_entries")
		out, _ := json.Marshal(m)
		return out, m
	}
	wantJSON, want := normalize(get(t, single.URL+"/v1/status", http.StatusOK))
	gotJSON, _ := normalize(get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("brokered coordinator status differs from the unsplit daemon:\ncoord  %s\nsingle %s", gotJSON, wantJSON)
	}
	if !bytes.Equal(get(t, coordTS.URL+"/v1/checkpoint", http.StatusOK), get(t, single.URL+"/v1/checkpoint", http.StatusOK)) {
		t.Fatal("brokered coordinator's merged checkpoint differs from the unsplit daemon's")
	}
	leases, ok := want["burst_leases"].(map[string]any)
	if !ok {
		t.Fatalf("status carries no burst_leases section: %s", wantJSON)
	}
	if used, _ := leases["tokens_used"].(float64); used <= 0 {
		t.Fatalf("burst gate never spent a token over the horizon: %v", leases)
	}
}

// TestCoordinatorRejectsShardCountMismatch: a URL list that cannot match
// the joint world's routing partition fails New before any shard is
// contacted (the URLs here are dead on purpose).
func TestCoordinatorRejectsShardCountMismatch(t *testing.T) {
	_, sc := testWorld(t)
	_, err := New(context.Background(), Config{Scenario: sc, ShardURLs: []string{
		"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3",
	}})
	if err == nil || !strings.Contains(err.Error(), "market regions") {
		t.Fatalf("3 URLs for a 2-region world: got %v, want a partition-count error", err)
	}
}

// TestCoordinatorNeedsShardablePolicy: a policy with no routing
// candidates has no market regions for shards to serve, so New refuses it
// before any shard is contacted (the URL is dead on purpose).
func TestCoordinatorNeedsShardablePolicy(t *testing.T) {
	_, sc := testWorld(t)
	allToOne, err := routing.NewAllToOne(sc.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy = allToOne
	_, err = New(context.Background(), Config{Scenario: sc, ShardURLs: []string{"http://127.0.0.1:1"}})
	if err == nil || !strings.Contains(err.Error(), "market regions") {
		t.Fatalf("unshardable policy: got %v, want an error saying it has no market regions", err)
	}
}

// TestCoordinatorDegradedReads: a shard dying mid-replay turns pulls and
// fan-outs into tagged ErrShardUnreachable failures, while every status
// and metrics read, forced or not, falls back to the newest merged
// snapshot and says so via X-Coord-Degraded. A coordinator on which no
// read has merged has nothing to fall back on and answers 502.
func TestCoordinatorDegradedReads(t *testing.T) {
	sys, sc := testWorld(t)
	p, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, len(subs))
	urls := make([]string, len(subs))
	for i, sub := range subs {
		eng, err := sim.NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(srv.Handler())
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	co, coordTS := newCoordinator(t, sc, urls)
	_, unread := newCoordinator(t, sc, urls)

	const hours = 24
	feedWorld(t, sys, sc, coordTS.URL, hours)
	get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK) // one read merges a snapshot

	servers[0].Close() // shard 0 dies mid-replay

	// A pull reports the unreachable shard as such.
	if _, err := co.pullMergeSettled(context.Background()); !errors.Is(err, ErrShardUnreachable) {
		t.Fatalf("pull with a dead shard: got %v, want ErrShardUnreachable", err)
	}

	// A forced read degrades to the newest merged snapshot instead of
	// failing.
	resp, err := http.Get(coordTS.URL + "/v1/status?refresh=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status: got %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Coord-Degraded"); !strings.Contains(h, "unreachable") {
		t.Fatalf("degraded status header %q does not name the unreachable shard", h)
	}
	var status struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Steps != hours {
		t.Fatalf("degraded status serves step %d, want the last merged %d", status.Steps, hours)
	}

	// An unforced read pulls too, and degrades the same way.
	for _, path := range []string{"/v1/status", "/metrics"} {
		resp, err = http.Get(coordTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if h := resp.Header.Get("X-Coord-Degraded"); resp.StatusCode != http.StatusOK || !strings.Contains(h, "unreachable") {
			t.Fatalf("unforced %s: code %d, degraded %q", path, resp.StatusCode, h)
		}
	}

	// No read merged on the second coordinator: nothing to serve.
	for _, path := range []string{"/v1/status?refresh=1", "/v1/status", "/metrics"} {
		if out := get(t, unread.URL+path, http.StatusBadGateway); !strings.Contains(string(out), "unreachable") {
			t.Fatalf("%s with no merged snapshot: %s", path, out)
		}
	}

	// Demand fan-out fails loudly, naming the shard.
	at := sc.Start.Add(hours * sc.Step)
	var row []float64
	row = sc.Demand.Rates(at, row)
	body, _ = json.Marshal(map[string]any{"at": at, "rates": row})
	out := postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusBadGateway)
	if !strings.Contains(string(out), "unreachable") {
		t.Fatalf("demand fan-out error does not tag the unreachable shard: %s", out)
	}
}

// jobsBatch encodes demand rows [from, from+n) as a jobs=1 batch. Every
// fourth absolute step each cluster of the joint fleet receives one job,
// addressed by its joint index, the load tracegen -batch-spec replays.
func jobsBatch(t *testing.T, sc sim.Scenario, from, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	start := sc.Start.Add(time.Duration(from) * sc.Step)
	h := server.BatchHeader{Kind: "demand", Start: start, Step: sc.Step, Rows: n, Cols: len(sc.Fleet.States), Jobs: true}
	if err := h.Write(&b); err != nil {
		t.Fatal(err)
	}
	var demand []float64
	var jobs []server.WireJob
	for i := from; i < from+n; i++ {
		jobs = jobs[:0]
		if i%4 == 0 {
			for c := range sc.Fleet.Clusters {
				jobs = append(jobs, server.WireJob{Cluster: uint32(c), DeadlineSteps: 12, EnergyKWh: 500, MinFraction: 0.5})
			}
		}
		demand = sc.Demand.Rates(sc.Start.Add(time.Duration(i)*sc.Step), demand)
		b.Write(server.AppendJobs(nil, jobs))
		b.Write(server.AppendRow(nil, demand))
	}
	return b.Bytes()
}

// TestCoordinatorForwardsJobs: deferrable jobs posted through the
// coordinator, as jobs=1 batch rows and as JSON, reach the shards that own
// their home clusters, so the merged status equals an unsplit daemon's
// byte for byte with work still queued. Jobs the engine would refuse are
// rejected with 400 before any shard is posted to, leaving every shard at
// the same step cursor.
func TestCoordinatorForwardsJobs(t *testing.T) {
	sys, sc := testWorld(t)
	batch, err := batchspec.Parse("w=20,pct=0.3", sys.Fleet, sys.Market)
	if err != nil {
		t.Fatal(err)
	}
	sc.Batch = batch
	const batchHours, hours = 5 * 24, 6 * 24

	singleEng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	singleSrv, err := server.New(server.Config{Engine: singleEng})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(singleSrv.Handler())
	defer single.Close()
	urls := newShards(t, sc)
	if len(urls) != 2 {
		t.Fatalf("expected 2 shards, got %d", len(urls))
	}
	_, coordTS := newCoordinator(t, sc, urls)
	targets := []string{single.URL, coordTS.URL}

	for _, url := range targets {
		feedPrices(t, sys, sc, url, hours+1)
		postBody(t, url+"/v1/demand", server.ContentTypeDemandBatch, jobsBatch(t, sc, 0, batchHours), http.StatusOK)
	}
	// The rest of the horizon as JSON posts, jobs named by cluster code.
	jsonStep := func(step int, jobs []server.JobPost) []byte {
		at := sc.Start.Add(time.Duration(step) * sc.Step)
		body, err := json.Marshal(server.DemandPost{At: at, Rates: sc.Demand.Rates(at, nil), Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for step := batchHours; step < hours; step++ {
		var jobs []server.JobPost
		if step%3 == 0 {
			for _, cl := range sc.Fleet.Clusters {
				jobs = append(jobs, server.JobPost{Cluster: cl.Code, DeadlineSteps: 30, EnergyKWh: 300, MinFraction: 0.25})
			}
		}
		body := jsonStep(step, jobs)
		for _, url := range targets {
			postBody(t, url+"/v1/demand", "application/json", body, http.StatusOK)
		}
	}

	// Rejected before fan-out: a bad job in the second row of a batch, or
	// in a JSON post, must leave every shard where it was.
	nc := uint32(len(sc.Fleet.Clusters))
	good := server.WireJob{Cluster: 0, DeadlineSteps: 4, EnergyKWh: 10, MinFraction: 0.5}
	badWire := map[string]server.WireJob{
		"cluster out of range":  {Cluster: nc, DeadlineSteps: 4, EnergyKWh: 10},
		"zero deadline":         {Cluster: 0, DeadlineSteps: 0, EnergyKWh: 10},
		"NaN energy":            {Cluster: 0, DeadlineSteps: 4, EnergyKWh: math.NaN()},
		"infinite energy":       {Cluster: 0, DeadlineSteps: 4, EnergyKWh: math.Inf(1)},
		"zero energy":           {Cluster: 0, DeadlineSteps: 4, EnergyKWh: 0},
		"negative min fraction": {Cluster: 0, DeadlineSteps: 4, EnergyKWh: 10, MinFraction: -0.1},
	}
	twoRows := func(second []byte) []byte {
		var b bytes.Buffer
		start := sc.Start.Add(time.Duration(hours) * sc.Step)
		h := server.BatchHeader{Kind: "demand", Start: start, Step: sc.Step, Rows: 2, Cols: len(sc.Fleet.States), Jobs: true}
		if err := h.Write(&b); err != nil {
			t.Fatal(err)
		}
		rates := sc.Demand.Rates(start, nil)
		b.Write(server.AppendJobs(nil, []server.WireJob{good}))
		b.Write(server.AppendRow(nil, rates))
		b.Write(second)
		b.Write(server.AppendRow(nil, rates))
		return b.Bytes()
	}
	for name, wj := range badWire {
		out := postBody(t, coordTS.URL+"/v1/demand", server.ContentTypeDemandBatch,
			twoRows(server.AppendJobs(nil, []server.WireJob{good, wj})), http.StatusBadRequest)
		if !strings.Contains(string(out), "demand row 1: job 1") {
			t.Errorf("%s: error does not name row 1, job 1: %s", name, out)
		}
	}
	overCap := binary.LittleEndian.AppendUint32(nil, 1<<16+1)
	if out := postBody(t, coordTS.URL+"/v1/demand", server.ContentTypeDemandBatch, twoRows(overCap), http.StatusBadRequest); !strings.Contains(string(out), "per-row cap") {
		t.Errorf("over-cap job block: %s", out)
	}
	badJSON := map[string]server.JobPost{
		"unknown cluster":         {Cluster: "nope", DeadlineSteps: 4, EnergyKWh: 10},
		"zero deadline":           {Cluster: sc.Fleet.Clusters[0].Code, DeadlineSteps: 0, EnergyKWh: 10},
		"negative energy":         {Cluster: sc.Fleet.Clusters[0].Code, DeadlineSteps: 4, EnergyKWh: -1},
		"min fraction above one":  {Cluster: sc.Fleet.Clusters[0].Code, DeadlineSteps: 4, EnergyKWh: 10, MinFraction: 1.5},
		"non-positive deadline":   {Cluster: sc.Fleet.Clusters[0].Code, DeadlineSteps: -3, EnergyKWh: 10},
		"min fraction below zero": {Cluster: sc.Fleet.Clusters[0].Code, DeadlineSteps: 4, EnergyKWh: 10, MinFraction: -1},
	}
	goodJSON := server.JobPost{Cluster: sc.Fleet.Clusters[0].Code, DeadlineSteps: 4, EnergyKWh: 10}
	for name, jp := range badJSON {
		out := postBody(t, coordTS.URL+"/v1/demand", "application/json", jsonStep(hours, []server.JobPost{goodJSON, jp}), http.StatusBadRequest)
		if !strings.Contains(string(out), "job 1") {
			t.Errorf("%s: error does not name job 1: %s", name, out)
		}
	}
	for _, url := range urls {
		var status struct {
			Steps int `json:"steps"`
		}
		if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &status); err != nil {
			t.Fatal(err)
		}
		if status.Steps != hours {
			t.Fatalf("shard %s at step %d after rejected posts, want %d", url, status.Steps, hours)
		}
	}

	normalize := func(raw []byte) ([]byte, map[string]any) {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "price_feed_entries")
		out, _ := json.Marshal(m)
		return out, m
	}
	wantJSON, want := normalize(get(t, single.URL+"/v1/status", http.StatusOK))
	gotJSON, _ := normalize(get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("coordinator status with jobs differs from the unsplit daemon:\ncoord  %s\nsingle %s", gotJSON, wantJSON)
	}
	if !bytes.Equal(get(t, coordTS.URL+"/v1/checkpoint", http.StatusOK), get(t, single.URL+"/v1/checkpoint", http.StatusOK)) {
		t.Fatal("coordinator's merged checkpoint with jobs differs from the unsplit daemon's")
	}
	for _, key := range []string{"batch_queued_kwh", "batch_served_kwh"} {
		if v, _ := want[key].(float64); !(v > 0) {
			t.Fatalf("%s = %v: the job load left no trace, so the diff tested nothing", key, want[key])
		}
	}
}

// TestCoordinatorDiscoveryRejectsBadTopologies: shards that overlap, miss
// clusters or states, are listed out of region order, or disagree on the
// policy must fail New loudly.
func TestCoordinatorDiscoveryRejectsBadTopologies(t *testing.T) {
	_, sc := testWorld(t)
	urls := newShards(t, sc)

	ctx := context.Background()
	if _, err := New(ctx, Config{Scenario: sc}); err == nil {
		t.Error("no shard URLs accepted")
	}
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: urls[:1]}); err == nil {
		t.Error("incomplete shard cover accepted")
	}
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: []string{urls[0], urls[0]}}); err == nil {
		t.Error("duplicated shard accepted")
	}
	// Shard i must serve region i: -shards lists them in -shard-index
	// order.
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: []string{urls[1], urls[0]}}); err == nil || !strings.Contains(err.Error(), "region 0") {
		t.Errorf("swapped shards: got %v, want an error naming region 0", err)
	}

	// A shard serving its region's clusters but not all of its states.
	var world map[string]any
	if err := json.Unmarshal(get(t, urls[0]+"/v1/world", http.StatusOK), &world); err != nil {
		t.Fatal(err)
	}
	states := world["states"].([]any)
	world["states"] = states[:len(states)-1]
	lacking := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, world)
	}))
	defer lacking.Close()
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: []string{lacking.URL, urls[1]}}); err == nil || !strings.Contains(err.Error(), "region 0") {
		t.Errorf("shard missing a state of its region: got %v, want an error naming region 0", err)
	}

	// A shard serving the whole world overlaps any real shard.
	wholeEng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	wholeSrv, err := server.New(server.Config{Engine: wholeEng})
	if err != nil {
		t.Fatal(err)
	}
	whole := httptest.NewServer(wholeSrv.Handler())
	defer whole.Close()
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: []string{whole.URL, urls[1]}}); err == nil {
		t.Error("overlapping shards accepted")
	}

	// Policy mismatch: shards run a different optimizer reach.
	_, sc600 := testWorld(t)
	opt600, err := routing.NewPriceOptimizer(sc600.Fleet, 600, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc600.Policy = opt600
	urls600 := newShards(t, sc600)
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: urls600}); err == nil {
		t.Error("shards with a different policy accepted")
	}
}

// TestCoordinatorRefusesForeignShards: shards that serve the right
// regions of another world (another market seed, another reaction delay)
// must fail New on the region's world hash, before any post reaches
// them, instead of passing it and answering every status read 502.
func TestCoordinatorRefusesForeignShards(t *testing.T) {
	_, sc := testWorld(t)
	_, seed7 := seededWorld(t, 7)
	delayed := sc
	delayed.ReactionDelay = 2 * time.Hour
	for name, foreign := range map[string]sim.Scenario{"seed 7": seed7, "2h delay": delayed} {
		_, err := New(context.Background(), Config{Scenario: sc, ShardURLs: newShards(t, foreign)})
		if err == nil || !strings.Contains(err.Error(), "runs world") || !strings.Contains(err.Error(), "region 0") {
			t.Errorf("%s: got %v, want a world hash error naming region 0", name, err)
		}
	}
}

// countingTransport counts the coordinator's requests to its shards by
// URL path, and records every body it sends, per shard URL, in the order
// sent.
type countingTransport struct {
	mu     sync.Mutex
	paths  map[string]int
	bodies map[string][][]byte
}

func newCountingTransport() *countingTransport {
	return &countingTransport{paths: map[string]int{}, bodies: map[string][][]byte{}}
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.GetBody != nil {
		rd, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		if body, err = io.ReadAll(rd); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.paths[r.URL.Path]++
	url := r.URL.Scheme + "://" + r.URL.Host
	c.bodies[url] = append(c.bodies[url], body)
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (c *countingTransport) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paths[path]
}

// total counts every request sent to any shard.
func (c *countingTransport) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.paths {
		n += k
	}
	return n
}

// lastBody returns the last body sent to url.
func (c *countingTransport) lastBody(t *testing.T, url string) []byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	bs := c.bodies[url]
	if len(bs) == 0 {
		t.Fatalf("nothing sent to shard %s", url)
	}
	return bs[len(bs)-1]
}

// lastBatch parses the header of the last body sent to url, a binary
// batch, and returns it with a reader over the rows.
func (c *countingTransport) lastBatch(t *testing.T, url string) (*server.BatchHeader, *bufio.Reader) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(c.lastBody(t, url)))
	h, err := server.ParseBatchHeader(br)
	if err != nil {
		t.Fatalf("shard %s: last body is no batch: %v", url, err)
	}
	return h, br
}

// padJSON marshals v, then pads it with spaces before its closing brace
// to exactly n bytes, so a decoder has to read all n to finish the value.
func padJSON(t *testing.T, v any, n int) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > n {
		t.Fatalf("%d-byte body does not fit in %d bytes", len(b), n)
	}
	out := append(b[:len(b)-1:len(b)-1], bytes.Repeat([]byte{' '}, n-len(b))...)
	return append(out, '}')
}

// TestCoordinatorRejectsBadDemand: demand the coordinator refuses reaches
// no shard, so every shard stays at the same step cursor: a negative rate
// (400, on the JSON path and as the second row of a binary batch), a
// client's own gate bits (400, a gates=1 batch or a JSON "gate"), and a
// JSON body one byte over server.MaxJSONBody (413). A good row, padded to
// exactly the bound, then brokers and routes with one request per shard.
func TestCoordinatorRejectsBadDemand(t *testing.T) {
	sys, _, shardSc := burstWorld(t)
	urls := newBurstShards(t, shardSc)
	_, _, sc := burstWorld(t)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	feedPrices(t, sys, sc, ts.URL, 4)

	rates := sc.Demand.Rates(sc.Start, nil)
	bad := slices.Clone(rates)
	bad[5] = -1
	body, err := json.Marshal(server.DemandPost{At: sc.Start, Rates: bad})
	if err != nil {
		t.Fatal(err)
	}
	if out := postBody(t, ts.URL+"/v1/demand", "application/json", body, http.StatusBadRequest); !strings.Contains(string(out), "state 5") {
		t.Errorf("negative JSON rate: error does not name state 5: %s", out)
	}
	var b bytes.Buffer
	if err := server.WriteBatchHeader(&b, "demand", sc.Start, sc.Step, 2, len(rates), nil); err != nil {
		t.Fatal(err)
	}
	b.Write(server.AppendRow(nil, rates))
	b.Write(server.AppendRow(nil, bad))
	if out := postBody(t, ts.URL+"/v1/demand", server.ContentTypeDemandBatch, b.Bytes(), http.StatusBadRequest); !strings.Contains(string(out), "demand row 1") {
		t.Errorf("negative batch rate: error does not name row 1: %s", out)
	}
	gated := server.BatchHeader{Kind: "demand", Start: sc.Start, Step: sc.Step, Rows: 1, Cols: len(rates), Gates: true}
	b.Reset()
	if err := gated.Write(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteByte(1)
	b.Write(server.AppendRow(nil, rates))
	if out := postBody(t, ts.URL+"/v1/demand", server.ContentTypeDemandBatch, b.Bytes(), http.StatusBadRequest); !strings.Contains(string(out), "gates=1") {
		t.Errorf("client gate bytes: %s", out)
	}
	open := true
	body, err = json.Marshal(server.DemandPost{At: sc.Start, Rates: rates, Gate: &open})
	if err != nil {
		t.Fatal(err)
	}
	if out := postBody(t, ts.URL+"/v1/demand", "application/json", body, http.StatusBadRequest); !strings.Contains(string(out), "derives every row's gate bit") {
		t.Errorf("client JSON gate: %s", out)
	}
	good := server.DemandPost{At: sc.Start, Rates: rates}
	postBody(t, ts.URL+"/v1/demand", "application/json", padJSON(t, good, server.MaxJSONBody+1), http.StatusRequestEntityTooLarge)
	before := tr.total()
	if n := tr.count("/v1/demand"); n != 0 {
		t.Fatalf("rejected demand still sent %d requests to shard /v1/demand", n)
	}
	for _, url := range urls {
		var status struct {
			Steps int `json:"steps"`
		}
		if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &status); err != nil {
			t.Fatal(err)
		}
		if status.Steps != 0 {
			t.Fatalf("shard %s at step %d after rejected posts, want 0", url, status.Steps)
		}
	}

	postBody(t, ts.URL+"/v1/demand", "application/json", padJSON(t, good, server.MaxJSONBody), http.StatusOK)
	if tr.count("/v1/demand") != len(urls) || tr.total()-before != len(urls) {
		t.Fatalf("good row: %d demand posts of %d requests, want %d of %d", tr.count("/v1/demand"), tr.total()-before, len(urls), len(urls))
	}
}

// TestCoordinatorSendsGateBitsWithRows: on a brokered world each good
// demand post, a batch or a JSON post, costs exactly one /v1/demand
// request per shard and nothing else. Every shard batch says gates=1 and
// leads each row with the gate byte sim.BurstGateOpen(sim.SumDemand(row),
// room) of the full row, followed by the shard's own columns; every JSON
// sub-post carries that bit as "gate". The burst world's horizon opens
// the gate on some rows, so both bit values are checked.
func TestCoordinatorSendsGateBitsWithRows(t *testing.T) {
	sys, _, shardSc := burstWorld(t)
	urls := newBurstShards(t, shardSc)
	_, _, sc := burstWorld(t)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	room, err := sim.BurstRoomTotal(sc.Fleet, sc.SoftCaps)
	if err != nil {
		t.Fatal(err)
	}
	hours := sc.Steps - 1
	feedPrices(t, sys, sc, ts.URL, sc.Steps)

	// One request per shard, and only that: the demand post itself.
	posts := func(what string, post func()) {
		t.Helper()
		before, demand := tr.total(), tr.count("/v1/demand")
		post()
		if n, d := tr.total()-before, tr.count("/v1/demand")-demand; n != len(urls) || d != len(urls) {
			t.Fatalf("%s: %d requests, %d of them demand posts; want %d demand posts and nothing else", what, n, d, len(urls))
		}
	}
	rows := make([][]float64, hours+1)
	gates := make([]byte, hours+1)
	for i := range rows {
		rows[i] = sc.Demand.Rates(sc.Start.Add(time.Duration(i)*sc.Step), nil)
		if sim.BurstGateOpen(sim.SumDemand(rows[i]), room) {
			gates[i] = 1
		}
	}
	if !bytes.Contains(gates[:hours], []byte{0}) || !bytes.Contains(gates[:hours], []byte{1}) {
		t.Fatalf("the batch's gate bits are not mixed: %v", gates[:hours])
	}

	var b bytes.Buffer
	if err := server.WriteBatchHeader(&b, "demand", sc.Start, sc.Step, hours, len(sc.Fleet.States), nil); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[:hours] {
		b.Write(server.AppendRow(nil, row))
	}
	posts("batch", func() { postBody(t, ts.URL+"/v1/demand", server.ContentTypeDemandBatch, b.Bytes(), http.StatusOK) })
	for i, url := range urls {
		states := co.shards[i].states
		h, br := tr.lastBatch(t, url)
		if !h.Gates || h.Jobs || h.Rows != hours || h.Cols != len(states) {
			t.Fatalf("shard %d received %+v, want gates=1 over %d rows of %d columns", i, h, hours, len(states))
		}
		cells := make([]byte, 8*len(states))
		sub := make([]float64, len(states))
		for k, row := range rows[:hours] {
			g, err := br.ReadByte()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(br, cells); err != nil {
				t.Fatal(err)
			}
			for j, s := range states {
				sub[j] = row[s]
			}
			if g != gates[k] || !bytes.Equal(cells, server.AppendRow(nil, sub)) {
				t.Fatalf("shard %d row %d: gate byte %d and cells %x, want %d and %x", i, k, g, cells, gates[k], server.AppendRow(nil, sub))
			}
		}
		if n := br.Buffered(); n != 0 {
			t.Fatalf("shard %d: %d bytes after the last row", i, n)
		}
	}

	body, err := json.Marshal(server.DemandPost{Rates: rows[hours]})
	if err != nil {
		t.Fatal(err)
	}
	posts("JSON", func() { postBody(t, ts.URL+"/v1/demand", "application/json", body, http.StatusOK) })
	for i, url := range urls {
		var sub server.DemandPost
		if err := json.Unmarshal(tr.lastBody(t, url), &sub); err != nil {
			t.Fatal(err)
		}
		if sub.Gate == nil || *sub.Gate != (gates[hours] == 1) {
			t.Fatalf("shard %d JSON sub-post gate %v, want %v", i, sub.Gate, gates[hours] == 1)
		}
	}
}

// TestCoordinatorChecksDemandGrid: on a world with no burst broker too, a
// demand batch whose step is not the joint world's, a batch whose start
// lies off the joint grid, and a JSON post whose "at" does, are refused
// with 400 before any shard sees a request. A JSON post with no "at"
// routes at the shards' next interval.
func TestCoordinatorChecksDemandGrid(t *testing.T) {
	sys, sc := testWorld(t)
	urls := newShards(t, sc)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	feedPrices(t, sys, sc, ts.URL, 4)
	before := tr.total()

	rates := sc.Demand.Rates(sc.Start, nil)
	batch := func(start time.Time, step time.Duration) []byte {
		var b bytes.Buffer
		if err := server.WriteBatchHeader(&b, "demand", start, step, 1, len(rates), nil); err != nil {
			t.Fatal(err)
		}
		return append(b.Bytes(), server.AppendRow(nil, rates)...)
	}
	offGrid, err := json.Marshal(server.DemandPost{At: sc.Start.Add(30 * time.Minute), Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, contentType string
		body              []byte
		want              string
	}{
		{"half-hour step", server.ContentTypeDemandBatch, batch(sc.Start, 30*time.Minute), "joint world steps"},
		{"start off the grid", server.ContentTypeDemandBatch, batch(sc.Start.Add(time.Minute), sc.Step), "grid"},
		{"start before the world", server.ContentTypeDemandBatch, batch(sc.Start.Add(-sc.Step), sc.Step), "grid"},
		{"JSON at off the grid", "application/json", offGrid, "grid"},
	} {
		if out := postBody(t, ts.URL+"/v1/demand", c.contentType, c.body, http.StatusBadRequest); !strings.Contains(string(out), c.want) {
			t.Errorf("%s: error does not say %q: %s", c.name, c.want, out)
		}
	}
	if n := tr.total() - before; n != 0 {
		t.Fatalf("refused demand sent %d shard requests", n)
	}

	body, err := json.Marshal(server.DemandPost{Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, ts.URL+"/v1/demand", "application/json", body, http.StatusOK)
	for _, url := range urls {
		var status struct {
			Steps int `json:"steps"`
		}
		if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &status); err != nil {
			t.Fatal(err)
		}
		if status.Steps != 1 {
			t.Fatalf("shard %s at step %d, want 1", url, status.Steps)
		}
	}
}

// TestCoordinatorBoundsJSONPrices: a JSON price post one byte over
// server.MaxJSONBody answers 413 before any shard sees a /v1/prices
// request — forwarded, every shard would refuse it and the client would
// see a 502 — while a body of exactly the bound reaches every shard, and
// each takes it.
func TestCoordinatorBoundsJSONPrices(t *testing.T) {
	sys, sc := testWorld(t)
	urls := newShards(t, sc)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	prices := map[string]float64{}
	for _, h := range sys.Market.Hubs() {
		prices[h.ID] = 30
	}
	post := map[string]any{"at": sc.Start, "prices": prices}
	out := postBody(t, ts.URL+"/v1/prices", "application/json", padJSON(t, post, server.MaxJSONBody+1), http.StatusRequestEntityTooLarge)
	if !strings.Contains(string(out), "exceeds") {
		t.Errorf("price post over the bound: %s", out)
	}
	if n := tr.count("/v1/prices"); n != 0 {
		t.Fatalf("price post over the bound sent %d requests to shard /v1/prices", n)
	}

	postBody(t, ts.URL+"/v1/prices", "application/json", padJSON(t, post, server.MaxJSONBody), http.StatusOK)
	if n := tr.count("/v1/prices"); n != len(urls) {
		t.Fatalf("price post at the bound sent %d shard requests, want %d", n, len(urls))
	}
	for _, url := range urls {
		var status struct {
			FeedEntries int `json:"price_feed_entries"`
		}
		if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &status); err != nil {
			t.Fatal(err)
		}
		if status.FeedEntries != 1 {
			t.Fatalf("shard %s holds %d feed entries after the post at the bound, want 1", url, status.FeedEntries)
		}
	}
}

// priceBatch encodes rows hours of prices for hubs from hour from, as one
// binary batch. A hub's price depends only on the hub and the hour, so a
// shard given another hub's column would bill differently.
func priceBatch(t *testing.T, sc sim.Scenario, hubs []string, from, rows int) []byte {
	t.Helper()
	var b bytes.Buffer
	start := sc.Start.Add(time.Duration(from) * sc.Step)
	if err := server.WriteBatchHeader(&b, "prices", start, sc.Step, rows, len(hubs), hubs); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(hubs))
	for i := from; i < from+rows; i++ {
		for j, hub := range hubs {
			row[j] = 20 + float64(crc32.ChecksumIEEE([]byte(hub))%97)*0.5 + float64(i)*0.25
		}
		b.Write(server.AppendRow(nil, row))
	}
	return b.Bytes()
}

// TestCoordinatorSplitsPriceBatches: the coordinator writes each shard a
// price batch of only the hubs its clusters sit on, in the batch's order,
// or of the batch's first column when it hosts none of them. Three
// batches (every hub; a shuffled subset; every hub but one shard's) leave
// each shard byte-identical to a twin fed the whole batch directly: the
// same /v1/status, price_feed_entries included, after each batch and
// after the steps routed on its prices.
func TestCoordinatorSplitsPriceBatches(t *testing.T) {
	sys, sc := testWorld(t)
	urls := newShards(t, sc)
	twins := newShards(t, sc)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	hosted := make([]map[string]bool, len(urls))
	for i := range hosted {
		hosted[i] = map[string]bool{}
	}
	for c, cl := range sc.Fleet.Clusters {
		hosted[co.clusterShard[c]][cl.HubID] = true
	}
	all := marketHubs(sys)
	rng := rand.New(rand.NewPCG(3, 20))
	shuffled := slices.Clone(all)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	subset := shuffled[:len(shuffled)/2]
	notLast := slices.DeleteFunc(slices.Clone(shuffled), func(hub string) bool { return hosted[len(urls)-1][hub] })

	const rows = 3
	for b, hubs := range [][]string{all, subset, notLast} {
		body := priceBatch(t, sc, hubs, b*rows, rows)
		postBody(t, ts.URL+"/v1/prices", server.ContentTypePricesBatch, body, http.StatusOK)
		for _, twin := range twins {
			postBody(t, twin+"/v1/prices", server.ContentTypePricesBatch, body, http.StatusOK)
		}
		for i, url := range urls {
			var want []string
			for _, hub := range hubs {
				if hosted[i][hub] {
					want = append(want, hub)
				}
			}
			// Only the third batch leaves a shard, the last, hosting none.
			if (want == nil) != (b == 2 && i == len(urls)-1) {
				t.Fatalf("batch %d names %v of shard %d's hubs; the case is not the one meant", b, want, i)
			}
			if want == nil {
				want = hubs[:1]
			}
			h, _ := tr.lastBatch(t, url)
			if !slices.Equal(h.Hubs, want) || h.Cols != len(want) || h.Rows != rows || h.Step != sc.Step ||
				!h.Start.Equal(sc.Start.Add(time.Duration(b*rows)*sc.Step)) {
				t.Fatalf("batch %d: shard %d received %+v, want hubs %v over %d rows", b, i, h, want, rows)
			}
		}
		sameShards(t, fmt.Sprintf("batch %d", b), urls, twins)

		// Route the batch's hours on its prices: through the coordinator,
		// and to each twin as its own states' columns.
		for k := b * rows; k < (b+1)*rows; k++ {
			at := sc.Start.Add(time.Duration(k) * sc.Step)
			rates := sc.Demand.Rates(at, nil)
			body, _ = json.Marshal(server.DemandPost{At: at, Rates: rates})
			postBody(t, ts.URL+"/v1/demand", "application/json", body, http.StatusOK)
			for i, twin := range twins {
				sub := make([]float64, len(co.shards[i].states))
				for j, s := range co.shards[i].states {
					sub[j] = rates[s]
				}
				body, _ = json.Marshal(server.DemandPost{At: at, Rates: sub})
				postBody(t, twin+"/v1/demand", "application/json", body, http.StatusOK)
			}
		}
		sameShards(t, fmt.Sprintf("steps after batch %d", b), urls, twins)
	}
}

// sameShards requires each shard's /v1/status to equal its twin's byte
// for byte.
func sameShards(t *testing.T, when string, urls, twins []string) {
	t.Helper()
	for i := range urls {
		got := get(t, urls[i]+"/v1/status", http.StatusOK)
		want := get(t, twins[i]+"/v1/status", http.StatusOK)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: shard %d status differs from its twin fed the whole batch:\nsplit %s\nwhole %s", when, i, got, want)
		}
	}
}

// TestCoordinatorRejectsBadPrices: a price batch the shards would refuse
// is answered by the coordinator before any shard sees a /v1/prices
// request: 400, naming the row or the header field, for a non-finite
// value in a column no shard hosts, a truncated body, a duplicated hub,
// and a header line past 64 KiB; 413 for a header declaring more than
// server.MaxBatchBody bytes of rows, 1,048,576 rows of 200 hubs.
func TestCoordinatorRejectsBadPrices(t *testing.T) {
	sys, sc := testWorld(t)
	urls := newShards(t, sc)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	hubs := marketHubs(sys)
	const nowhere = "NOWHERE"
	if _, ok := co.hubShards[nowhere]; ok {
		t.Fatalf("hub %s hosts a cluster", nowhere)
	}
	nonFinite := priceBatch(t, sc, append(slices.Clone(hubs), nowhere), 0, 2)
	binary.LittleEndian.PutUint64(nonFinite[len(nonFinite)-8:], math.Float64bits(math.Inf(1)))
	full := priceBatch(t, sc, hubs, 0, 3)
	truncated := full[:len(full)-8*len(hubs)+5]
	dup := priceBatch(t, sc, []string{hubs[0], hubs[0]}, 0, 1)
	line := fmt.Sprintf("powerroute-batch v1 kind=prices start=%d step=%d rows=1 cols=1 hubs=%s", sc.Start.UnixNano(), int64(sc.Step), hubs[0])
	long := append([]byte(line+strings.Repeat(" ", 1<<16-len(line))+"\n"), server.AppendRow(nil, []float64{30})...)

	for _, c := range []struct {
		name string
		body []byte
		want []string
	}{
		{"non-finite in an unhosted column", nonFinite, []string{"price row 1", "non-finite"}},
		{"truncated", truncated, []string{"price row 2", "truncated"}},
		{"duplicated hub", dup, []string{"twice"}},
		{"header past 64 KiB", long, []string{"exceeds 65536 bytes"}},
	} {
		out := string(postBody(t, ts.URL+"/v1/prices", server.ContentTypePricesBatch, c.body, http.StatusBadRequest))
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: error does not name %q: %s", c.name, want, out)
			}
		}
	}
	wide := make([]string, 200)
	for i := range wide {
		wide[i] = fmt.Sprintf("H%d", i)
	}
	var over bytes.Buffer
	if err := server.WriteBatchHeader(&over, "prices", sc.Start, sc.Step, 1<<20, len(wide), wide); err != nil {
		t.Fatal(err)
	}
	over.Write(server.AppendRow(nil, make([]float64, len(wide))))
	if out := postBody(t, ts.URL+"/v1/prices", server.ContentTypePricesBatch, over.Bytes(), http.StatusRequestEntityTooLarge); !strings.Contains(string(out), "exceeds 1073741824 bytes") {
		t.Errorf("over-bound price batch: %s", out)
	}
	if n := tr.count("/v1/prices"); n != 0 {
		t.Fatalf("refused price batches sent %d requests to shard /v1/prices", n)
	}
}

// TestCoordinatorStagingFollowsRows: a batch header is the client's
// claim, so a header claiming 1,048,576 rows followed by one row sizes
// the per-shard bodies for at most a replay chunk. Sized from the header,
// the demand split would allocate ~428 MB on this 51-state fleet before
// reading row 1 and finding the body truncated.
func TestCoordinatorStagingFollowsRows(t *testing.T) {
	sys, sc := testWorld(t)
	co, _ := newCoordinator(t, sc, newShards(t, sc))
	const claimed = 1 << 20
	hubs := marketHubs(sys)
	var demand bytes.Buffer
	if err := server.WriteBatchHeader(&demand, "demand", sc.Start, sc.Step, claimed, len(sc.Fleet.States), nil); err != nil {
		t.Fatal(err)
	}
	demand.Write(server.AppendRow(nil, sc.Demand.Rates(sc.Start, nil)))
	var prices bytes.Buffer
	if err := server.WriteBatchHeader(&prices, "prices", sc.Start, sc.Step, claimed, len(hubs), hubs); err != nil {
		t.Fatal(err)
	}
	prices.Write(server.AppendRow(nil, make([]float64, len(hubs))))

	for _, c := range []struct {
		path, contentType string
		body              []byte
		want              string
	}{
		{"/v1/demand", server.ContentTypeDemandBatch, demand.Bytes(), "demand row 1"},
		{"/v1/prices", server.ContentTypePricesBatch, prices.Bytes(), "price row 1"},
	} {
		req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		co.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.want) {
			t.Fatalf("%s: got %d %s, want 400 naming %q", c.path, rec.Code, rec.Body, c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("%s: a %d-row claim with one row allocated %d bytes", c.path, claimed, alloc)
		}
	}
}

// TestJSONBodiesHoldOneValue: a JSON price or demand post carrying more
// than one JSON value, or one value followed by junk or a stray brace,
// answers 400 on a daemon, on a lease-fed shard and on the coordinator,
// and moves nothing: every engine cursor and price feed stays where it
// was, and the coordinator sends no /v1/prices or /v1/demand request to
// any shard.
func TestJSONBodiesHoldOneValue(t *testing.T) {
	sys, _, shardSc := burstWorld(t)
	urls := newBurstShards(t, shardSc)
	_, _, sc := burstWorld(t)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(co.Handler())
	defer coordTS.Close()
	_, singleSc := testWorld(t)
	eng, err := sim.NewEngine(singleSc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(srv.Handler())
	defer single.Close()
	feedPrices(t, sys, sc, coordTS.URL, 4)
	feedPrices(t, sys, singleSc, single.URL, 4)

	type state struct {
		Steps       int `json:"steps"`
		FeedEntries int `json:"price_feed_entries"`
	}
	daemons := append([]string{single.URL}, urls...)
	states := func() []state {
		out := make([]state, len(daemons))
		for i, url := range daemons {
			if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	// bad spoils a good body three ways: a second value and junk, a stray
	// closing brace, and a second value alone.
	bad := func(v any) [][]byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{
			append(append(slices.Clone(b), b...), " not json at all"...),
			append(slices.Clone(b), '}'),
			append(append(slices.Clone(b), '\n'), b...),
		}
	}
	prices := map[string]float64{}
	for _, hub := range marketHubs(sys) {
		prices[hub] = 30
	}
	pricePosts := bad(map[string]any{"at": sc.Start.Add(4 * sc.Step), "prices": prices})
	closed := false
	demandPosts := func(url string) [][]byte {
		var world struct {
			States []string `json:"states"`
		}
		if err := json.Unmarshal(get(t, url+"/v1/world", http.StatusOK), &world); err != nil {
			t.Fatal(err)
		}
		post := server.DemandPost{Rates: make([]float64, len(world.States))}
		if slices.Contains(urls, url) {
			post.Gate = &closed
		}
		return bad(post)
	}

	before := states()
	ingest := func() int { return tr.count("/v1/prices") + tr.count("/v1/demand") }
	ingested, sent := ingest(), tr.total()
	for _, url := range append(daemons, coordTS.URL) {
		for _, body := range pricePosts {
			postBody(t, url+"/v1/prices", "application/json", body, http.StatusBadRequest)
		}
		for _, body := range demandPosts(url) {
			postBody(t, url+"/v1/demand", "application/json", body, http.StatusBadRequest)
		}
	}
	if got := states(); !slices.Equal(got, before) {
		t.Fatalf("refused bodies moved the daemons: %+v, was %+v", got, before)
	}
	if n := ingest() - ingested; n != 0 || tr.total() != sent {
		t.Fatalf("refused bodies sent %d ingest requests (%d requests in all) to the shards", n, tr.total()-sent)
	}
}

// TestCoordinatorEveryReadPulls: demand posted after the last forced read
// shows in the next unforced GET /v1/status and GET /metrics. Every read
// pulls and merges the shards; none is served from an earlier merge.
func TestCoordinatorEveryReadPulls(t *testing.T) {
	sys, sc := testWorld(t)
	_, coordTS := newCoordinator(t, sc, newShards(t, sc))
	const hours = 6
	feedWorld(t, sys, sc, coordTS.URL, hours)
	get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK)

	at := sc.Start.Add(hours * sc.Step)
	body, err := json.Marshal(server.DemandPost{At: at, Rates: sc.Demand.Rates(at, nil)})
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusOK)

	var status struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(get(t, coordTS.URL+"/v1/status", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.Steps != hours+1 {
		t.Fatalf("unforced status after a post reports step %d, want %d", status.Steps, hours+1)
	}
	metrics := string(get(t, coordTS.URL+"/metrics", http.StatusOK))
	if want := fmt.Sprintf("\npowerrouted_steps_total %d\n", hours+1); !strings.Contains(metrics, want) {
		t.Fatalf("unforced metrics after a post lack %q:\n%s", strings.TrimSpace(want), metrics)
	}
}

// TestCoordinatorChecksJSONPrices: a JSON price post a shard would refuse
// (no "at", no prices, an "at" past the feed's int64-nanosecond range, a
// price past sim.MaxMagnitude) is answered by the coordinator with the
// daemon's own 400 before any shard sees a /v1/prices request. A good
// post reaches every shard as the post it decoded.
func TestCoordinatorChecksJSONPrices(t *testing.T) {
	sys, sc := testWorld(t)
	urls := newShards(t, sc)
	tr := newCountingTransport()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	hub := marketHubs(sys)[0]
	start := sc.Start.Format(time.RFC3339)
	for _, body := range []string{
		fmt.Sprintf(`{"prices":{%q:30}}`, hub),
		fmt.Sprintf(`{"at":%q,"prices":{}}`, start),
		fmt.Sprintf(`{"at":"3000-01-01T00:00:00Z","prices":{%q:30}}`, hub),
		fmt.Sprintf(`{"at":%q,"prices":{%q:1e308}}`, start, hub),
	} {
		want := postBody(t, urls[0]+"/v1/prices", "application/json", []byte(body), http.StatusBadRequest)
		got := postBody(t, ts.URL+"/v1/prices", "application/json", []byte(body), http.StatusBadRequest)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: coordinator answered %s, a shard %s", body, got, want)
		}
	}
	if n := tr.count("/v1/prices"); n != 0 {
		t.Fatalf("refused price posts sent %d requests to shard /v1/prices", n)
	}

	prices := map[string]float64{}
	for i, hub := range marketHubs(sys) {
		prices[hub] = 30 + float64(i)
	}
	post := server.PricePost{At: sc.Start, Prices: prices}
	body, err := json.Marshal(post)
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, ts.URL+"/v1/prices", "application/json", body, http.StatusOK)
	for _, url := range urls {
		var sent server.PricePost
		if err := json.Unmarshal(tr.lastBody(t, url), &sent); err != nil {
			t.Fatal(err)
		}
		if !sent.At.Equal(post.At) || !maps.Equal(sent.Prices, post.Prices) {
			t.Fatalf("shard %s received %+v, want %+v", url, sent, post)
		}
	}
}

// TestConcurrentCoordinatorReads: demand batches post through the
// coordinator while readers poll unforced /v1/status and /metrics. Every
// answer is 200, no reader ever sees the step count fall, and the last
// read equals an unsplit daemon's status byte for byte, bar
// price_feed_entries. CI runs it ten times under the race detector.
func TestConcurrentCoordinatorReads(t *testing.T) {
	sys, sc := testWorld(t)
	const hours, chunk, readers = 48, 4, 3

	singleEng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	singleSrv, err := server.New(server.Config{Engine: singleEng})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(singleSrv.Handler())
	defer single.Close()
	feedWorld(t, sys, sc, single.URL, hours)

	_, coordTS := newCoordinator(t, sc, newShards(t, sc))
	feedPrices(t, sys, sc, coordTS.URL, hours)
	get(t, coordTS.URL+"/v1/status", http.StatusOK)

	// readSteps reads one fleet-wide step count, from the status body or
	// the metrics text.
	readSteps := func(path string) (int, error) {
		resp, err := http.Get(coordTS.URL + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		var status struct {
			Steps *int `json:"steps"`
		}
		if path == "/v1/status" {
			if err := json.Unmarshal(body, &status); err != nil || status.Steps == nil {
				return 0, fmt.Errorf("GET %s: no steps in %s (%v)", path, body, err)
			}
			return *status.Steps, nil
		}
		var steps int
		for line := range strings.Lines(string(body)) {
			if n, err := fmt.Sscanf(line, "powerrouted_steps_total %d\n", &steps); n == 1 && err == nil {
				return steps, nil
			}
		}
		return 0, fmt.Errorf("GET %s: no steps counter in %s", path, body)
	}

	// Every reader has answered once before the first post, so the reads
	// overlap the posts.
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg, started sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := r; ; i++ {
				path := []string{"/v1/status", "/metrics"}[i%2]
				steps, err := readSteps(path)
				if err == nil && steps < last {
					err = fmt.Errorf("reader %d: GET %s reports step %d after step %d", r, path, steps, last)
				}
				if i == r {
					started.Done()
				}
				if err != nil {
					errs <- err
					return
				}
				last = steps
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	var demand []float64
	for from := 0; from < hours; from += chunk {
		var b bytes.Buffer
		if err := server.WriteBatchHeader(&b, "demand", sc.Start.Add(time.Duration(from)*sc.Step), sc.Step, chunk, len(sc.Fleet.States), nil); err != nil {
			t.Fatal(err)
		}
		for i := from; i < from+chunk; i++ {
			demand = sc.Demand.Rates(sc.Start.Add(time.Duration(i)*sc.Step), demand)
			b.Write(server.AppendRow(nil, demand))
		}
		postBody(t, coordTS.URL+"/v1/demand", server.ContentTypeDemandBatch, b.Bytes(), http.StatusOK)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	normalize := func(raw []byte) []byte {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "price_feed_entries")
		out, _ := json.Marshal(m)
		return out
	}
	want := normalize(get(t, single.URL+"/v1/status", http.StatusOK))
	got := normalize(get(t, coordTS.URL+"/v1/status", http.StatusOK))
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator status after concurrent reads differs from the unsplit daemon:\ncoord  %s\nsingle %s", got, want)
	}
}

// holdTransport answers every shard checkpoint pull with the checkpoint
// the shard served when asked, but, while hold is set, hands it back only
// once hold is closed, announcing each held pull on held.
type holdTransport struct {
	mu   sync.Mutex
	hold chan struct{}
	held chan struct{}
}

func (h *holdTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != "/v1/checkpoint" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	h.mu.Lock()
	hold, held := h.hold, h.held
	h.mu.Unlock()
	if hold != nil {
		held <- struct{}{}
		<-hold
	}
	return resp, nil
}

// TestCoordinatorKeepsNewestSnapshot: a read whose pull finishes last but
// merged an older fleet does not replace the newest merged snapshot, so
// a degraded read afterwards still serves the newest. Read A pulls the
// shards at step 6 and is held; a post moves them to step 7, which read B
// merges; A then completes; with a shard down, every read answers step 7.
func TestCoordinatorKeepsNewestSnapshot(t *testing.T) {
	sys, sc := testWorld(t)
	p, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, len(subs))
	urls := make([]string, len(subs))
	for i, sub := range subs {
		eng, err := sim.NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(srv.Handler())
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	tr := &holdTransport{}
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	const hours = 6
	feedWorld(t, sys, sc, ts.URL, hours)
	steps := func(raw []byte) int {
		t.Helper()
		var status struct {
			Steps int `json:"steps"`
		}
		if err := json.Unmarshal(raw, &status); err != nil {
			t.Fatal(err)
		}
		return status.Steps
	}

	hold := make(chan struct{})
	tr.mu.Lock()
	tr.hold, tr.held = hold, make(chan struct{}, len(urls))
	held := tr.held
	tr.mu.Unlock()
	readA := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			readA <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		readA <- body
	}()
	for range urls {
		<-held
	}
	tr.mu.Lock()
	tr.hold = nil
	tr.mu.Unlock()

	at := sc.Start.Add(hours * sc.Step)
	body, err := json.Marshal(server.DemandPost{At: at, Rates: sc.Demand.Rates(at, nil)})
	if err != nil {
		t.Fatal(err)
	}
	postBody(t, ts.URL+"/v1/demand", "application/json", body, http.StatusOK)
	if got := steps(get(t, ts.URL+"/v1/status", http.StatusOK)); got != hours+1 {
		t.Fatalf("read B merged step %d, want %d", got, hours+1)
	}
	close(hold)
	a := <-readA
	if a == nil {
		t.Fatal("read A failed")
	}
	if got := steps(a); got != hours {
		t.Fatalf("read A merged step %d, want %d", got, hours)
	}

	servers[0].Close()
	for _, path := range []string{"/v1/status", "/v1/status?refresh=1"} {
		if got := steps(get(t, ts.URL+path, http.StatusOK)); got != hours+1 {
			t.Fatalf("degraded %s serves step %d, want the newest merged %d", path, got, hours+1)
		}
	}
}
