package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"powerroute/internal/cluster"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
	"powerroute/internal/storage"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testWorld builds the small deterministic world every server test runs
// against: 1-month market, 7-day trace (seven days cover each hour of the
// week once, so the long-run demand profile has no holes).
func testWorld(t testing.TB) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: 42, MarketMonths: 1, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// testScenario is the hourly test world under the 1500 km optimizer.
func testScenario(t testing.TB, sys *core.System) sim.Scenario {
	t.Helper()
	opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Scenario{
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

func testEngine(t testing.TB, sys *core.System) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(testScenario(t, sys))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testServer(t testing.TB) (*Server, *httptest.Server, *core.System) {
	t.Helper()
	sys := testWorld(t)
	srv, ts := serve(t, testScenario(t, sys), nil)
	return srv, ts, sys
}

// serve starts a daemon over a new engine for sc; a non-nil leases makes
// it a lease-fed shard, latching each row's gate bit into leases.
func serve(t testing.TB, sc sim.Scenario, leases *sim.LeaseStore) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Leases: leases})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts v and returns the response body, failing unless the
// status is wantCode.
func postJSON(t *testing.T, url string, v any, wantCode int) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, body, wantCode)
}

// postRaw posts body as JSON and returns the response body, failing
// unless the status is wantCode.
func postRaw(t *testing.T, url string, body []byte, wantCode int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// hubPrices builds a full JSON price map for the fleet's hubs at a flat
// price plus a per-hub offset, so every cluster is covered and prices
// differ deterministically.
func hubPrices(sys *core.System, base float64) map[string]float64 {
	prices := make(map[string]float64)
	for i, cl := range sys.Fleet.Clusters {
		prices[cl.HubID] = base + float64(i)
	}
	return prices
}

// feedEntries reads the daemon's feed length under the lock that guards
// the feed.
func feedEntries(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.feed.entries()
}

func flatDemand(n int, rate float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = rate
	}
	return d
}

// checkGolden compares got against testdata/<name> (rewriting it under
// -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -update` to create goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenResponses pins the exact JSON every read endpoint serves after
// a deterministic two-interval session: world description, status,
// assignments (with matrix), and a routed demand response.
func TestGoldenResponses(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start

	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start.Add(time.Hour), Prices: hubPrices(sys, 60)}, http.StatusOK)

	demand := flatDemand(len(sys.Fleet.States), 2000)
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: demand}, http.StatusOK)
	routedBody := postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: demand}, http.StatusOK)

	checkGolden(t, "demand.golden.json", routedBody)
	checkGolden(t, "world.golden.json", get(t, ts.URL+"/v1/world", http.StatusOK))
	checkGolden(t, "status.golden.json", get(t, ts.URL+"/v1/status", http.StatusOK))
	checkGolden(t, "assignments.golden.json", get(t, ts.URL+"/v1/assignments?matrix=1", http.StatusOK))
}

// TestStoragePolicyReported: a storage-configured daemon names its battery
// dispatch policy in /v1/status and /v1/world; a storage-free one omits
// the field entirely (the golden files above pin that absence).
func TestStoragePolicyReported(t *testing.T) {
	sys := testWorld(t)
	eng := testEngine(t, sys)
	sc := eng.Scenario()
	dispatch, err := storage.NewThreshold(25, 55)
	if err != nil {
		t.Fatal(err)
	}
	sc.Storage = storage.Uniform(storage.Battery{CapacityKWh: 100, MaxChargeKW: 40, MaxDischargeKW: 40}, len(sys.Fleet.Clusters), dispatch)
	stored, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: stored})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for _, path := range []string{"/v1/status", "/v1/world"} {
		var resp map[string]any
		if err := json.Unmarshal(get(t, ts.URL+path, http.StatusOK), &resp); err != nil {
			t.Fatal(err)
		}
		if got := resp["storage_policy"]; got != dispatch.Name() {
			t.Errorf("%s storage_policy = %v, want %q", path, got, dispatch.Name())
		}
	}
}

// TestMetrics sanity-checks the Prometheus exposition: counters present,
// steps correct, per-cluster series labeled.
func TestMetrics(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 40)}, http.StatusOK)
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(len(sys.Fleet.States), 1000)}, http.StatusOK)

	body := string(get(t, ts.URL+"/metrics", http.StatusOK))
	for _, want := range []string{
		"powerrouted_steps_total 1\n",
		"# TYPE powerrouted_cost_dollars_total counter",
		`powerrouted_cluster_rate_hits{cluster="NY"}`,
		"powerrouted_price_feed_entries 1\n",
		`powerrouted_http_requests_total{handler="demand"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIngestErrors drives every rejection path: demand before prices,
// mis-sized demand, time regressions, malformed bodies, batch shape
// mismatches.
func TestIngestErrors(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)

	// Demand with an empty feed.
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns, 1)}, http.StatusConflict)
	// Price post without a timestamp, without prices, and partial coverage.
	postJSON(t, ts.URL+"/v1/prices", PricePost{Prices: hubPrices(sys, 30)}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: map[string]float64{"NYC": 40}}, http.StatusBadRequest)

	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	// Partial update is fine once a full vector exists.
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start.Add(time.Hour), Prices: map[string]float64{"NYC": 99}}, http.StatusOK)
	// Price time regression.
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start.Add(-time.Hour), Prices: hubPrices(sys, 30)}, http.StatusConflict)

	// Mis-sized demand vector.
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns-1, 1)}, http.StatusBadRequest)
	// Demand at the wrong interval.
	postJSON(t, ts.URL+"/v1/demand", DemandPost{At: start.Add(5 * time.Hour), Rates: flatDemand(ns, 1)}, http.StatusConflict)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/demand", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: got %d", resp.StatusCode)
	}
}

// demandBatch builds a binary demand batch body.
func demandBatch(start time.Time, step time.Duration, rows [][]float64) *bytes.Buffer {
	var b bytes.Buffer
	if err := WriteBatchHeader(&b, "demand", start, step, len(rows), len(rows[0]), nil); err != nil {
		panic(err)
	}
	for _, row := range rows {
		b.Write(AppendRow(nil, row))
	}
	return &b
}

// TestBinaryBatch routes a binary demand batch end to end and checks the
// rejection paths (bad magic, wrong kind, shape mismatch, misaligned
// start, truncated body).
func TestBinaryBatch(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)

	// Seed prices via a binary prices batch covering 4 hours.
	hubIDs := make([]string, 0, len(sys.Fleet.Clusters))
	seen := map[string]bool{}
	for _, cl := range sys.Fleet.Clusters {
		if !seen[cl.HubID] {
			seen[cl.HubID] = true
			hubIDs = append(hubIDs, cl.HubID)
		}
	}
	var pb bytes.Buffer
	if err := WriteBatchHeader(&pb, "prices", start, time.Hour, 4, len(hubIDs), hubIDs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		row := make([]float64, len(hubIDs))
		for j := range row {
			row[j] = 30 + float64(10*i+j)
		}
		pb.Write(AppendRow(nil, row))
	}
	resp, err := http.Post(ts.URL+"/v1/prices", ContentTypePricesBatch, &pb)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prices batch: %d", resp.StatusCode)
	}

	rows := [][]float64{flatDemand(ns, 500), flatDemand(ns, 700), flatDemand(ns, 900)}
	resp, err = http.Post(ts.URL+"/v1/demand", ContentTypeDemandBatch, demandBatch(start, time.Hour, rows))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("demand batch: %d: %s", resp.StatusCode, body)
	}
	var routed struct {
		Routed int `json:"routed"`
		Steps  int `json:"steps"`
	}
	if err := json.Unmarshal(body, &routed); err != nil {
		t.Fatal(err)
	}
	if routed.Routed != 3 || routed.Steps != 3 {
		t.Fatalf("routed %+v, want 3/3", routed)
	}

	bad := []struct {
		name        string
		contentType string
		body        io.Reader
		wantCode    int
	}{
		{"bad magic", ContentTypeDemandBatch, strings.NewReader("nope v9 kind=demand\n"), http.StatusBadRequest},
		{"wrong kind", ContentTypeDemandBatch,
			func() *bytes.Buffer {
				var b bytes.Buffer
				_ = WriteBatchHeader(&b, "prices", start, time.Hour, 1, 2, []string{"A", "B"})
				b.Write(AppendRow(nil, []float64{1, 2}))
				return &b
			}(), http.StatusBadRequest},
		{"wrong cols", ContentTypeDemandBatch,
			demandBatch(start.Add(3*time.Hour), time.Hour, [][]float64{{1, 2, 3}}), http.StatusBadRequest},
		{"misaligned start", ContentTypeDemandBatch,
			demandBatch(start, time.Hour, [][]float64{flatDemand(ns, 1)}), http.StatusConflict},
		{"wrong step", ContentTypeDemandBatch,
			demandBatch(start.Add(3*time.Hour), 30*time.Minute, [][]float64{flatDemand(ns, 1)}), http.StatusBadRequest},
		{"truncated body", ContentTypeDemandBatch,
			func() io.Reader {
				full := demandBatch(start.Add(3*time.Hour), time.Hour, [][]float64{flatDemand(ns, 1)})
				return bytes.NewReader(full.Bytes()[:full.Len()-8])
			}(), http.StatusBadRequest},
	}
	for _, tc := range bad {
		resp, err := http.Post(ts.URL+"/v1/demand", tc.contentType, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: got %d want %d: %s", tc.name, resp.StatusCode, tc.wantCode, msg)
		}
	}

	// The engine must still be exactly where the last good batch left it.
	var status struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/status", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.Steps != 3 {
		t.Fatalf("steps after rejected batches = %d, want 3", status.Steps)
	}
}

// TestConcurrentIngestAndQuery hammers the read endpoints from several
// goroutines while a single writer feeds prices and demand, under -race
// in CI. Every response must be well-formed; the final step count must
// equal what the writer ingested.
func TestConcurrentIngestAndQuery(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	const steps = 60

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/v1/status", "/metrics", "/v1/assignments?matrix=1", "/v1/world", "/healthz"}
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[(i+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("read returned %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}

	demand := flatDemand(ns, 1500)
	for i := 0; i < steps; i++ {
		at := start.Add(time.Duration(i) * time.Hour)
		postJSON(t, ts.URL+"/v1/prices", PricePost{At: at, Prices: hubPrices(sys, 30+float64(i))}, http.StatusOK)
		postJSON(t, ts.URL+"/v1/demand", DemandPost{At: at, Rates: demand}, http.StatusOK)
	}
	close(stop)
	wg.Wait()

	var status struct {
		Steps int     `json:"steps"`
		Cost  float64 `json:"total_cost_usd"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/status", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.Steps != steps || status.Cost <= 0 {
		t.Fatalf("final status %+v, want %d steps and positive cost", status, steps)
	}
}

// TestFinalizeStopsIngest: after the daemon closes the books, reads still
// serve and demand ingestion fails cleanly.
func TestFinalizeStopsIngest(t *testing.T) {
	srv, ts, sys := testServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 35)}, http.StatusOK)
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns, 800)}, http.StatusOK)

	res, err := srv.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 || res.TotalCost <= 0 {
		t.Fatalf("finalized %+v", res)
	}
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns, 800)}, http.StatusBadRequest)
	get(t, ts.URL+"/v1/status", http.StatusOK)
}

// TestNewRejectsNilEngine covers the constructor guard.
func TestNewRejectsNilEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil engine")
	}
}

// TestDemandPruningKeepsRouting: a long JSON-fed session must not grow the
// feed without bound, and routing must be unaffected by pruning.
func TestDemandPruningKeepsRouting(t *testing.T) {
	srv, ts, sys := testServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	const steps = 30
	for i := 0; i < steps; i++ {
		at := start.Add(time.Duration(i) * time.Hour)
		postJSON(t, ts.URL+"/v1/prices", PricePost{At: at, Prices: hubPrices(sys, 30+float64(i))}, http.StatusOK)
		postJSON(t, ts.URL+"/v1/demand", DemandPost{At: at, Rates: flatDemand(ns, 1200)}, http.StatusOK)
	}
	held := feedEntries(srv)
	// Next lookup horizon is Next-delay = start+(steps-1)h; only the
	// covering entry plus newer ones survive (delay = 1h -> 2 entries).
	if held > 3 {
		t.Fatalf("feed holds %d entries after %d steps; pruning is not bounding it", held, steps)
	}
	var status struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/status", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.Steps != steps {
		t.Fatalf("steps = %d, want %d", status.Steps, steps)
	}
}

// TestBatchHeaderRequiresStart: a prices batch without start= must be
// rejected, not silently anchored at the Unix epoch.
func TestBatchHeaderRequiresStart(t *testing.T) {
	_, ts, _ := testServer(t)
	body := "powerroute-batch v1 kind=prices step=3600000000000 rows=1 cols=1 hubs=NYC\n" +
		string(AppendRow(nil, []float64{42}))
	resp, err := http.Post(ts.URL+"/v1/prices", ContentTypePricesBatch, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("start-less batch: got %d: %s", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "missing start") {
		t.Errorf("error does not name the missing field: %s", msg)
	}
}

// leaseServer builds a lease-fed daemon: the unsplit test world under
// soft caps at 90% of each cluster's capacity, its engine's gate read
// from the same LeaseStore the server latches each demand row's gate bit
// into.
func leaseServer(t testing.TB) (*Server, *httptest.Server, *core.System) {
	t.Helper()
	sys := testWorld(t)
	caps := make([]float64, len(sys.Fleet.Clusters))
	for c, cl := range sys.Fleet.Clusters {
		caps[c] = 0.9 * float64(cl.Capacity)
	}
	store := &sim.LeaseStore{}
	sc := testScenario(t, sys)
	sc.SoftCaps = caps
	sc.BurstGate = store
	srv, ts := serve(t, sc, store)
	return srv, ts, sys
}

// gatedBatch builds a gates=1 binary demand batch of hourly rows, each
// led by its gate byte.
func gatedBatch(start time.Time, rows [][]float64, gates []byte) []byte {
	h := BatchHeader{Kind: "demand", Start: start, Step: time.Hour, Rows: len(rows), Cols: len(rows[0]), Gates: true}
	var b bytes.Buffer
	if err := h.Write(&b); err != nil {
		panic(err)
	}
	for i, row := range rows {
		b.WriteByte(gates[i])
		b.Write(AppendRow(nil, row))
	}
	return b.Bytes()
}

// leaseStatus is the lease-fed daemon's step count and burst ledger.
type leaseStatus struct {
	Steps       int `json:"steps"`
	BurstLeases *struct {
		Granted int `json:"tokens_granted"`
		Used    int `json:"tokens_used"`
		Expired int `json:"tokens_expired"`
	} `json:"burst_leases"`
}

func readLeaseStatus(t *testing.T, url string) leaseStatus {
	t.Helper()
	var status leaseStatus
	if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.BurstLeases == nil {
		t.Fatalf("status = %+v, want a burst_leases section", status)
	}
	return status
}

// TestLeaseBrokeredDaemon drives a lease-fed shard over HTTP: a demand
// post without gate bits is refused before any row routes; each row's bit
// is latched for the step the row routes at, so an open bit grants burst
// tokens and a closed one grants none; a gate byte other than 0 or 1 is
// refused at its row with the resume point; and the lease state shows up
// in /v1/status, /v1/world and /metrics.
func TestLeaseBrokeredDaemon(t *testing.T) {
	_, ts, sys := leaseServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	row := flatDemand(ns, 900)
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)

	body := postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: row}, http.StatusBadRequest)
	if !strings.Contains(string(body), "needs each demand row's burst gate bit") {
		t.Fatalf("JSON demand without a gate bit: %s", body)
	}
	if code := postBatch(t, ts.URL, demandBatch(start, time.Hour, [][]float64{row})); code != http.StatusBadRequest {
		t.Fatalf("batch without gates=1: got %d, want 400", code)
	}
	if st := readLeaseStatus(t, ts.URL); st.Steps != 0 {
		t.Fatalf("refused posts routed %d steps", st.Steps)
	}

	closed, open := false, true
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: row, Gate: &closed}, http.StatusOK)
	if st := readLeaseStatus(t, ts.URL); st.Steps != 1 || st.BurstLeases.Granted != 0 {
		t.Fatalf("after a closed gate: %+v, want 1 step and no tokens granted", st)
	}
	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: row, Gate: &open}, http.StatusOK)
	perOpen := readLeaseStatus(t, ts.URL).BurstLeases.Granted
	if perOpen == 0 {
		t.Fatal("an open gate granted no burst tokens")
	}

	// Rows 0 and 1 route (closed, then open); row 2's gate byte is refused
	// with the resume point.
	failure := postFailingBatch(t, ts.URL, gatedBatch(start.Add(2*time.Hour), [][]float64{row, row, row}, []byte{0, 1, 2}))
	if !strings.Contains(failure.Error, "demand row 2: gate byte 2") || failure.Routed != 2 || !failure.Next.Equal(start.Add(4*time.Hour)) {
		t.Fatalf("bad gate byte: %+v, want row 2 refused after 2 routed, next %v", failure, start.Add(4*time.Hour))
	}
	status := readLeaseStatus(t, ts.URL)
	if status.Steps != 4 || status.BurstLeases.Granted != 2*perOpen {
		t.Fatalf("status = %+v, want 4 steps and %d tokens granted", status, 2*perOpen)
	}
	var world struct {
		FleetBursts bool `json:"fleet_bursts"`
		LeaseBroker bool `json:"lease_broker"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/world", http.StatusOK), &world); err != nil {
		t.Fatal(err)
	}
	if !world.FleetBursts || !world.LeaseBroker {
		t.Fatalf("world = %+v, want fleet_bursts and lease_broker", world)
	}
	metrics := string(get(t, ts.URL+"/metrics", http.StatusOK))
	if !strings.Contains(metrics, "powerrouted_burst_tokens_granted_total") {
		t.Fatalf("metrics missing burst token counters:\n%s", metrics)
	}
}

// TestGateBitsRejectedWithoutBroker: a daemon that is not a lease-fed
// shard refuses gate bits, on a JSON post and on a gates=1 batch, before
// any row routes, instead of silently dropping them.
func TestGateBitsRejectedWithoutBroker(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start
	row := flatDemand(len(sys.Fleet.States), 500)
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	open := true
	body := postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: row, Gate: &open}, http.StatusBadRequest)
	if !strings.Contains(string(body), "takes no burst gate bits") {
		t.Fatalf("JSON gate on a daemon that is not lease-fed: %s", body)
	}
	if code := postBatch(t, ts.URL, bytes.NewReader(gatedBatch(start, [][]float64{row}, []byte{1}))); code != http.StatusBadRequest {
		t.Fatalf("gates=1 batch on a daemon that is not lease-fed: got %d, want 400", code)
	}
	if got := readIngestState(t, ts.URL); got.Steps != 0 {
		t.Fatalf("refused gate bits routed %d steps", got.Steps)
	}
	var world struct {
		FleetBursts *bool `json:"fleet_bursts"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/world", http.StatusOK), &world); err != nil {
		t.Fatal(err)
	}
	if world.FleetBursts != nil {
		t.Fatal("burst-free world advertises fleet_bursts")
	}
}

// batchFailure is the error body of a demand batch that died mid-way.
type batchFailure struct {
	Error  string    `json:"error"`
	Routed int       `json:"routed"`
	Next   time.Time `json:"next"`
}

// postFailingBatch posts a demand batch that must fail with 400 and
// returns its decoded error body.
func postFailingBatch(t *testing.T, url string, body []byte) batchFailure {
	t.Helper()
	resp, err := http.Post(url+"/v1/demand", ContentTypeDemandBatch, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated batch: got %d: %s", resp.StatusCode, out)
	}
	var failure batchFailure
	if err := json.Unmarshal(out, &failure); err != nil {
		t.Fatalf("error body is not JSON: %s", out)
	}
	return failure
}

// TestMidBatchErrorReportsResume: when a demand batch dies mid-way, the
// error body must carry the committed row count and the engine's next
// interval so the client can resume. Both wire forms go through the one
// row loop: a plain batch cut inside row 2, and a jobs=1 batch cut inside
// row 2's job block or inside its rates, each commit rows 0–1 (with their
// jobs, exactly once) and nothing of row 2.
func TestMidBatchErrorReportsResume(t *testing.T) {
	const kwh = 40
	job := []WireJob{{Cluster: 0, DeadlineSteps: 6, EnergyKWh: kwh}}
	cases := []struct {
		name string
		jobs bool
		// cut returns the truncated body of a full three-row batch;
		// rowBytes is one row's encoded size.
		cut func(full []byte, rowBytes int) []byte
	}{
		{"plain", false, func(full []byte, _ int) []byte { return full[:len(full)-8] }},
		{"jobs in job block", true, func(full []byte, rowBytes int) []byte {
			return full[:len(full)-rowBytes+4+wireJobBytes/2]
		}},
		{"jobs in rates", true, func(full []byte, _ int) []byte { return full[:len(full)-8] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, sys := batchServer(t)
			start := sys.Market.Start
			ns := len(sys.Fleet.States)
			postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 33)}, http.StatusOK)

			rows := [][]float64{flatDemand(ns, 400), flatDemand(ns, 500), flatDemand(ns, 600)}
			batch := func(at time.Time, rows [][]float64) *bytes.Buffer {
				if !tc.jobs {
					return demandBatch(at, time.Hour, rows)
				}
				jobs := make([][]WireJob, len(rows))
				for i := range jobs {
					jobs[i] = job
				}
				return jobsBatch(at, rows, jobs)
			}
			rowBytes := 8 * ns
			arrived := 0.0
			if tc.jobs {
				rowBytes += 4 + wireJobBytes
				arrived = kwh
			}
			full := batch(start, rows).Bytes()
			failure := postFailingBatch(t, ts.URL, tc.cut(full, rowBytes))
			if failure.Routed != 2 || !failure.Next.Equal(start.Add(2*time.Hour)) || failure.Error == "" {
				t.Fatalf("resume info wrong: %+v", failure)
			}
			checkArrived(t, ts.URL, 2, 2*arrived)

			// Resuming from the reported point succeeds.
			if code := postBatch(t, ts.URL, batch(failure.Next, rows[2:])); code != http.StatusOK {
				t.Fatalf("resume batch: got %d", code)
			}
			checkArrived(t, ts.URL, 3, 3*arrived)
		})
	}
}

// TestBatchFormsRouteAlike: the same rows posted as a plain batch and as
// a jobs=1 batch whose every job block is empty route identically: both
// daemons answer the same and serve byte-identical status and
// assignments.
func TestBatchFormsRouteAlike(t *testing.T) {
	_, plain, sys := testServer(t)
	_, jobs, _ := testServer(t)
	start := sys.Market.Start
	const hours = 24
	rows := make([][]float64, hours)
	for i := range rows {
		rows[i] = sys.LongRun.Rates(start.Add(time.Duration(i)*time.Hour), nil)
	}
	for _, url := range []string{plain.URL, jobs.URL} {
		for i := 0; i < hours; i++ {
			at := start.Add(time.Duration(i) * time.Hour)
			postJSON(t, url+"/v1/prices", PricePost{At: at, Prices: hubPrices(sys, float64(20+7*(i%5)))}, http.StatusOK)
		}
	}

	routed := func(url string, body io.Reader) []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/demand", ContentTypeDemandBatch, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("demand batch: got %d: %s", resp.StatusCode, out)
		}
		return out
	}
	plainOut := routed(plain.URL, demandBatch(start, time.Hour, rows))
	jobsOut := routed(jobs.URL, jobsBatch(start, rows, make([][]WireJob, hours)))
	if !bytes.Equal(plainOut, jobsOut) {
		t.Errorf("demand responses differ:\nplain %s\njobs  %s", plainOut, jobsOut)
	}
	for _, path := range []string{"/v1/status", "/v1/assignments?matrix=1"} {
		p, j := get(t, plain.URL+path, http.StatusOK), get(t, jobs.URL+path, http.StatusOK)
		if !bytes.Equal(p, j) {
			t.Errorf("GET %s differs between the batch forms:\nplain %s\njobs  %s", path, p, j)
		}
	}
}

// TestNegativeDemandRejected: a negative rate is refused before it routes
// (sim.CheckDemand inside Step), on the JSON path with 400, and in a
// binary batch with 400 after committing exactly the rows before it.
func TestNegativeDemandRejected(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	steps := func() int {
		var status struct {
			Steps int `json:"steps"`
		}
		if err := json.Unmarshal(get(t, ts.URL+"/v1/status", http.StatusOK), &status); err != nil {
			t.Fatal(err)
		}
		return status.Steps
	}
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 33)}, http.StatusOK)

	bad := flatDemand(ns, 500)
	bad[3] = -1000
	if out := postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: bad}, http.StatusBadRequest); !strings.Contains(string(out), "state 3") {
		t.Fatalf("negative JSON demand: error does not name state 3: %s", out)
	}
	if got := steps(); got != 0 {
		t.Fatalf("rejected JSON demand advanced the engine to step %d", got)
	}

	const k = 2
	rows := [][]float64{flatDemand(ns, 400), flatDemand(ns, 500), bad, flatDemand(ns, 600)}
	resp, err := http.Post(ts.URL+"/v1/demand", ContentTypeDemandBatch, demandBatch(start, time.Hour, rows))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with a negative row: got %d: %s", resp.StatusCode, body)
	}
	var failure struct {
		Error  string `json:"error"`
		Routed int    `json:"routed"`
	}
	if err := json.Unmarshal(body, &failure); err != nil {
		t.Fatalf("error body is not JSON: %s", body)
	}
	if failure.Routed != k || !strings.Contains(failure.Error, "state 3") {
		t.Fatalf("batch failure %+v, want routed %d and an error naming state 3", failure, k)
	}
	if got := steps(); got != k {
		t.Fatalf("engine at step %d after the failed batch, want %d", got, k)
	}
}

// requestsFamily starts the metrics text's request counts, the last
// family MetricsText writes; every read moves them.
const requestsFamily = "# HELP powerrouted_http_requests_total"

// renderReads renders the status body, and the metrics text up to its
// request counts, from a snapshot and a feed entry count.
func renderReads(fleet *cluster.Fleet, snap *sim.Snapshot, entries int) (status, metrics string) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, StatusPayload(fleet, snap, entries))
	metrics, _, _ = strings.Cut(MetricsText(fleet, snap, entries, nil), requestsFamily)
	return rec.Body.String(), metrics
}

// lockedReads renders, under the lock, what reads must answer once a
// commit has answered: the engine's own snapshot and the feed's count.
func lockedReads(srv *Server) (status, metrics string) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return renderReads(srv.fleet, srv.eng.Snapshot(), srv.feed.entries())
}

// servedReads gets GET /v1/status, and GET /metrics up to its request
// counts, through client.
func servedReads(t *testing.T, client *http.Client, url string) (status, metrics string) {
	t.Helper()
	var bodies [2]string
	for i, path := range []string{"/v1/status", "/metrics"} {
		resp, err := client.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v: %s", path, resp.StatusCode, err, body)
		}
		bodies[i] = string(body)
	}
	metrics, _, _ = strings.Cut(bodies[1], requestsFamily)
	return bodies[0], metrics
}

// TestReadsSeeEveryCommit: every request that commits publishes its view
// before it answers, so the status and metrics read after it equal those
// rendered under the lock from the engine and the feed. The session runs
// each kind of commit on the batch-class world with a demand charge, so
// jobs queue and the bill carries open-month charges: price posts of both
// forms, demand posts of every form, a batch refused at row 2 after rows
// 0–1 routed, a 409 demand post, a checkpoint restore and Finalize. Each
// commit but the 409 and Finalize must change what a read renders.
// Finalize changes no book, so the reads after it must equal those before
// it, and the served total_cost_usd must be the Result's bit for bit. A
// new daemon's reads are checked first.
func TestReadsSeeEveryCommit(t *testing.T) {
	sys := testWorld(t)
	sc := batchScenario(t, sys)
	sc.DemandChargePerKW = 13.7
	srv, ts := serve(t, sc, nil)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	at := func(h int) time.Time { return start.Add(time.Duration(h) * time.Hour) }
	okBatch := func(path, contentType string, body io.Reader) {
		resp, err := http.Post(ts.URL+path, contentType, body)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: got %d: %s", path, resp.StatusCode, out)
		}
	}
	refused := flatDemand(ns, 700)
	refused[1] = -1

	var res *sim.Result
	prevStatus, prevMetrics := lockedReads(srv)
	if status, metrics := servedReads(t, http.DefaultClient, ts.URL); status != prevStatus || metrics != prevMetrics {
		t.Errorf("a new daemon answered\n%s\n%s\nwant, as rendered under the lock,\n%s\n%s", status, metrics, prevStatus, prevMetrics)
	}
	for _, commit := range []struct {
		name string
		do   func()
	}{
		{"JSON price post", func() {
			postJSON(t, ts.URL+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)
		}},
		{"price batch", func() {
			hubs := slices.Sorted(maps.Keys(hubPrices(sys, 0)))
			var b bytes.Buffer
			if err := WriteBatchHeader(&b, "prices", at(1), time.Hour, 12, len(hubs), hubs); err != nil {
				t.Fatal(err)
			}
			for i := range 12 {
				b.Write(AppendRow(nil, flatDemand(len(hubs), 41+float64(i%5))))
			}
			okBatch("/v1/prices", ContentTypePricesBatch, &b)
		}},
		{"JSON demand post", func() {
			postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns, 900)}, http.StatusOK)
		}},
		{"demand batch", func() {
			okBatch("/v1/demand", ContentTypeDemandBatch, demandBatch(at(1), time.Hour, [][]float64{flatDemand(ns, 800), flatDemand(ns, 1300)}))
		}},
		{"jobs=1 batch", func() {
			jobs := [][]WireJob{{{Cluster: 1, DeadlineSteps: 4, EnergyKWh: 30}}, nil}
			okBatch("/v1/demand", ContentTypeDemandBatch, jobsBatch(at(3), [][]float64{flatDemand(ns, 600), flatDemand(ns, 1000)}, jobs))
		}},
		{"batch refused at row 2", func() {
			f := postFailingBatch(t, ts.URL, demandBatch(at(5), time.Hour, [][]float64{flatDemand(ns, 700), flatDemand(ns, 1100), refused}).Bytes())
			if f.Routed != 2 {
				t.Fatalf("refused batch routed %d rows, want 2", f.Routed)
			}
		}},
		{"409 demand post", func() {
			postJSON(t, ts.URL+"/v1/demand", DemandPost{At: start, Rates: flatDemand(ns, 900)}, http.StatusConflict)
		}},
		{"checkpoint restore", func() {
			ckpt := getCheckpoint(t, ts, http.StatusOK)
			postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns, 500)}, http.StatusOK)
			putCheckpoint(t, ts, ckpt, http.StatusOK)
		}},
		{"Finalize", func() {
			var err error
			if res, err = srv.Finalize(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		commit.do()
		wantStatus, wantMetrics := lockedReads(srv)
		status, metrics := servedReads(t, http.DefaultClient, ts.URL)
		if status != wantStatus {
			t.Errorf("after the %s, /v1/status answered\n%s\nwant, as rendered under the lock,\n%s", commit.name, status, wantStatus)
		}
		if metrics != wantMetrics {
			t.Errorf("after the %s, /metrics answered\n%s\nwant, as rendered under the lock,\n%s", commit.name, metrics, wantMetrics)
		}
		if commit.name == "Finalize" {
			if status != prevStatus || metrics != prevMetrics {
				t.Errorf("Finalize changed what a read renders:\n%s\n%s\nwas\n%s\n%s", status, metrics, prevStatus, prevMetrics)
			}
			var served struct {
				TotalCost float64 `json:"total_cost_usd"`
			}
			if err := json.Unmarshal([]byte(status), &served); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(served.TotalCost) != math.Float64bits(float64(res.TotalCost)) {
				t.Errorf("after Finalize, /v1/status bills %v, the Result %v", served.TotalCost, res.TotalCost)
			}
		} else if changed := wantStatus != prevStatus && wantMetrics != prevMetrics; changed == (commit.name == "409 demand post") {
			t.Errorf("after the %s, the status and metrics changed: %v", commit.name, changed)
		}
		prevStatus, prevMetrics = wantStatus, wantMetrics
	}
}
