package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"powerroute/internal/batchspec"
	"powerroute/internal/core"
	"powerroute/internal/sim"
)

// batchServer builds a daemon over the test world with the deferrable
// batch class configured, so demand rows may carry jobs.
func batchServer(t testing.TB) (*httptest.Server, *core.System) {
	t.Helper()
	sys := testWorld(t)
	batch, err := batchspec.Parse("w=20,pct=0.3", sys.Fleet, sys.Market)
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario(t, sys)
	sc.Batch = batch
	eng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, sys
}

// ingestState is what a refused request must leave unchanged: the
// engine's cursor, the price feed, and the batch-job ledger.
type ingestState struct {
	Steps       int     `json:"steps"`
	FeedEntries int     `json:"price_feed_entries"`
	QueuedKWh   float64 `json:"batch_queued_kwh"`
	ServedKWh   float64 `json:"batch_served_kwh"`
	ShedKWh     float64 `json:"batch_shed_kwh"`
}

func readIngestState(t *testing.T, url string) ingestState {
	t.Helper()
	var st ingestState
	if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkArrived asserts the engine is at step steps and has taken in
// exactly kwh of batch work: every arrived kWh is served, shed or still
// queued, so a job queued twice shows as twice its energy.
func checkArrived(t *testing.T, url string, steps int, kwh float64) {
	t.Helper()
	st := readIngestState(t, url)
	if arrived := st.ServedKWh + st.ShedKWh + st.QueuedKWh; st.Steps != steps || math.Abs(arrived-kwh) > 1e-9 {
		t.Fatalf("engine at step %d with %v kWh of batch work arrived (%+v), want step %d with %v kWh",
			st.Steps, arrived, st, steps, kwh)
	}
}

// TestRefusedJSONRowQueuesNoJobs: a JSON demand row the daemon refuses
// (no prices yet, a wrong column count, a negative rate) answers 4xx and
// leaves its jobs unqueued, so resending the corrected row queues them
// exactly once.
func TestRefusedJSONRowQueuesNoJobs(t *testing.T) {
	ts, sys := batchServer(t)
	ns := len(sys.Fleet.States)
	const kwh = 40
	jobs := []JobPost{{Cluster: sys.Fleet.Clusters[0].Code, DeadlineSteps: 6, EnergyKWh: kwh}}

	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns, 500), Jobs: jobs}, http.StatusConflict)
	checkArrived(t, ts.URL, 0, 0)

	postJSON(t, ts.URL+"/v1/prices", pricePost{At: sys.Market.Start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	negative := flatDemand(ns, 500)
	negative[3] = -1
	for _, rates := range [][]float64{flatDemand(ns-1, 500), flatDemand(ns+1, 500), negative} {
		postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: rates, Jobs: jobs}, http.StatusBadRequest)
		checkArrived(t, ts.URL, 0, 0)
	}

	postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: flatDemand(ns, 500), Jobs: jobs}, http.StatusOK)
	checkArrived(t, ts.URL, 1, kwh)
}

// jobsBatch builds a jobs=1 binary demand batch body.
func jobsBatch(start time.Time, rows [][]float64, jobs [][]WireJob) *bytes.Buffer {
	h := BatchHeader{Kind: "demand", Start: start, Step: time.Hour, Rows: len(rows), Cols: len(rows[0]), Jobs: true}
	var b bytes.Buffer
	if err := h.Write(&b); err != nil {
		panic(err)
	}
	for i, row := range rows {
		b.Write(AppendJobs(nil, jobs[i]))
		b.Write(AppendRow(nil, row))
	}
	return &b
}

// postBatch posts a binary demand batch and returns the status code.
func postBatch(t *testing.T, url string, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/demand", ContentTypeDemandBatch, body)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestRefusedBatchRowQueuesNoJobs is the jobs=1 binary batch version:
// a refused row (no prices yet, a NaN, ±Inf or negative rate) commits
// neither its rates nor its jobs, rows before it stay committed with
// theirs, and the corrected row queues its job exactly once.
func TestRefusedBatchRowQueuesNoJobs(t *testing.T) {
	ts, sys := batchServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	const kwh = 40
	job := []WireJob{{Cluster: 0, DeadlineSteps: 6, EnergyKWh: kwh}}
	good := flatDemand(ns, 500)

	if code := postBatch(t, ts.URL, jobsBatch(start, [][]float64{good}, [][]WireJob{job})); code != http.StatusConflict {
		t.Fatalf("batch before prices: got %d, want 409", code)
	}
	checkArrived(t, ts.URL, 0, 0)

	postJSON(t, ts.URL+"/v1/prices", pricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	for i, v := range bads {
		bad := flatDemand(ns, 500)
		bad[3] = v
		at := start.Add(time.Duration(i) * time.Hour) // the resume point
		body := jobsBatch(at, [][]float64{good, bad}, [][]WireJob{job, job})
		if code := postBatch(t, ts.URL, body); code != http.StatusBadRequest {
			t.Fatalf("batch with a %v row: got %d, want 400", v, code)
		}
		checkArrived(t, ts.URL, i+1, float64(i+1)*kwh)
	}

	at := start.Add(time.Duration(len(bads)) * time.Hour)
	if code := postBatch(t, ts.URL, jobsBatch(at, [][]float64{good}, [][]WireJob{job})); code != http.StatusOK {
		t.Fatalf("corrected batch: got %d, want 200", code)
	}
	checkArrived(t, ts.URL, len(bads)+1, float64(len(bads)+1)*kwh)
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

// TestJSONBodyBound: a JSON price or demand post one byte over
// MaxJSONBody answers 413 and commits nothing — the engine cursor and the
// price feed stay as they were — while a body of exactly MaxJSONBody
// bytes is accepted. The daemon is a lease-fed shard, so the demand post
// carries its gate bit.
func TestJSONBodyBound(t *testing.T) {
	ts, sys := leaseServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	postJSON(t, ts.URL+"/v1/prices", pricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	before := readIngestState(t, ts.URL)

	prices := pricePost{At: start.Add(time.Hour), Prices: hubPrices(sys, 40)}
	closed := false
	demand := DemandPost{At: start, Rates: flatDemand(ns, 500), Gate: &closed}
	for _, c := range []struct {
		path string
		post any
	}{{"/v1/prices", prices}, {"/v1/demand", demand}} {
		out := postRaw(t, ts.URL+c.path, padJSON(t, c.post, MaxJSONBody+1), http.StatusRequestEntityTooLarge)
		if !strings.Contains(string(out), "exceeds") {
			t.Errorf("POST %s over the bound: %s", c.path, out)
		}
		if got := readIngestState(t, ts.URL); got != before {
			t.Fatalf("POST %s over the bound changed the daemon: %+v, was %+v", c.path, got, before)
		}
	}
	postRaw(t, ts.URL+"/v1/prices", padJSON(t, prices, MaxJSONBody), http.StatusOK)
	postRaw(t, ts.URL+"/v1/demand", padJSON(t, demand, MaxJSONBody), http.StatusOK)
	if got := readIngestState(t, ts.URL); got.Steps != 1 || got.FeedEntries <= before.FeedEntries {
		t.Fatalf("bodies at the bound did not commit: %+v, was %+v", got, before)
	}
}

// TestPriceInstantRange: the feed keys entries by int64 Unix
// nanoseconds, so instants outside that range are refused at the wire.
// A prices batch of 110,000 daily rows from the engine's start would
// reach 2307, past the range, and its row instants would wrap: it
// answers 400 and records nothing, not even unpublished rows that a
// later post would have to follow. A JSON post at the start then commits
// as the feed's first entry, and a JSON "at" outside the range answers
// 400.
func TestPriceInstantRange(t *testing.T) {
	srv, ts, sys := testServer(t)
	start := srv.eng.Start()
	prices := hubPrices(sys, 30)
	hubIDs := make([]string, 0, len(prices))
	row := make([]float64, 0, len(prices))
	for hub, p := range prices {
		hubIDs = append(hubIDs, hub)
		row = append(row, p)
	}
	const rows = 110000
	var b bytes.Buffer
	if err := WriteBatchHeader(&b, "prices", start, 24*time.Hour, rows, len(hubIDs), hubIDs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		b.Write(AppendRow(nil, row))
	}
	// In-process, so the early refusal cannot race the body upload.
	req := httptest.NewRequest(http.MethodPost, "/v1/prices", &b)
	req.Header.Set("Content-Type", ContentTypePricesBatch)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch past the int64-nanosecond range: got %d want 400: %s", rec.Code, rec.Body)
	}
	var out struct {
		FeedEntries int `json:"feed_entries"`
	}
	if err := json.Unmarshal(postJSON(t, ts.URL+"/v1/prices", pricePost{At: start, Prices: prices}, http.StatusOK), &out); err != nil {
		t.Fatal(err)
	}
	if out.FeedEntries != 1 {
		t.Fatalf("post at the start after the refused batch: feed_entries %d, want 1", out.FeedEntries)
	}

	for _, at := range []time.Time{
		time.Date(1677, 9, 21, 0, 0, 0, 0, time.UTC),
		time.Date(2262, 4, 12, 0, 0, 0, 0, time.UTC),
	} {
		postJSON(t, ts.URL+"/v1/prices", pricePost{At: at, Prices: prices}, http.StatusBadRequest)
	}
	if got := feedEntries(srv); got != 1 {
		t.Fatalf("refused out-of-range posts left %d feed entries, want 1", got)
	}
}

// shortHubs names n hubs as briefly as base 36 allows, so a 64 KiB
// header line holds about 14,000 of them.
func shortHubs(n int) []string {
	hubs := make([]string, n)
	for i := range hubs {
		hubs[i] = strconv.FormatInt(int64(i), 36)
	}
	return hubs
}

// priceClaim builds an in-process prices request: a header over hubs
// claiming rows rows from start, followed by one row.
func priceClaim(t *testing.T, start time.Time, hubs []string, rows int) *http.Request {
	t.Helper()
	var b bytes.Buffer
	if err := WriteBatchHeader(&b, "prices", start, time.Hour, rows, len(hubs), hubs); err != nil {
		t.Fatal(err)
	}
	b.Write(AppendRow(nil, make([]float64, len(hubs))))
	req := httptest.NewRequest(http.MethodPost, "/v1/prices", &b)
	req.Header.Set("Content-Type", ContentTypePricesBatch)
	return req
}

// TestBatchStagingFollowsRows: a batch header is the client's claim, so
// a prices header followed by one row sizes the daemon's staging for at
// most a replay chunk of 2,048 rows and at most 1 MiB of cells: 64 hubs
// over 1,048,576 rows, or 13,940 hubs (a 54 KB header) over 9,000 rows.
// The daemon refuses either truncated batch having allocated a few MiB;
// 2,048 rows of the wide claim would take 228 MB before reading a row.
func TestBatchStagingFollowsRows(t *testing.T) {
	srv, _, _ := testServer(t)
	for _, c := range []struct {
		hubs, rows int
	}{{64, maxBatchRows}, {13940, 9000}} {
		req := priceClaim(t, srv.eng.Start(), shortHubs(c.hubs), c.rows)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "price row 1") {
			t.Fatalf("%d hubs: truncated batch: got %d %s, want 400 naming price row 1", c.hubs, rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("a %d-row claim over %d hubs with one row allocated %d bytes", c.rows, c.hubs, alloc)
		}
		if n := feedEntries(srv); n != 0 {
			t.Fatalf("refused batch left %d feed entries", n)
		}
	}
}

// TestPriceBatchBodyBound: a prices header declaring more than
// MaxPriceBatchBody bytes of rows, 1,048,576 rows of 200 hubs, is refused
// with 413 at the header, leaving the feed as it was.
func TestPriceBatchBodyBound(t *testing.T) {
	srv, _, _ := testServer(t)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, priceClaim(t, srv.eng.Start(), shortHubs(200), maxBatchRows))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds 1073741824 bytes") {
		t.Fatalf("over-bound price batch: got %d %s, want 413", rec.Code, rec.Body)
	}
	if n := feedEntries(srv); n != 0 {
		t.Fatalf("refused batch left %d feed entries", n)
	}
}

// TestBatchHeaderLineBound: a batch header line may run to 64 KiB,
// newline included, the size of the reader the daemon reads it through.
// One byte more answers 400 and records nothing. The bound holds however
// the caller buffers the line.
func TestBatchHeaderLineBound(t *testing.T) {
	srv, ts, sys := testServer(t)
	var hubs []string
	var row []float64
	for hub, p := range hubPrices(sys, 30) {
		hubs = append(hubs, hub)
		row = append(row, p)
	}
	var h bytes.Buffer
	if err := WriteBatchHeader(&h, "prices", srv.eng.Start(), time.Hour, 1, len(hubs), hubs); err != nil {
		t.Fatal(err)
	}
	// The parser splits fields on any run of spaces, so padding before
	// the newline lengthens the line without changing the header.
	line := func(n int) []byte {
		b := bytes.TrimSuffix(h.Bytes(), []byte("\n"))
		return append(append(b, bytes.Repeat([]byte{' '}, n-len(b)-1)...), '\n')
	}
	post := func(n, wantCode int) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/prices", ContentTypePricesBatch, bytes.NewReader(append(line(n), AppendRow(nil, row)...)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%d-byte header line: got %d want %d: %s", n, resp.StatusCode, wantCode, out)
		}
		return string(out)
	}
	if out := post(maxBatchHeader+1, http.StatusBadRequest); !strings.Contains(out, "exceeds 65536 bytes") {
		t.Fatalf("over-long header refused for the wrong reason: %s", out)
	}
	if n := feedEntries(srv); n != 0 {
		t.Fatalf("refused batch left %d feed entries", n)
	}
	post(maxBatchHeader, http.StatusOK)
	if n := feedEntries(srv); n != 1 {
		t.Fatalf("batch with a header at the bound left %d feed entries, want 1", n)
	}

	for _, size := range []int{16, 1 << 20} {
		if _, err := ParseBatchHeader(bufio.NewReaderSize(bytes.NewReader(line(maxBatchHeader)), size)); err != nil {
			t.Errorf("%d-byte buffer: header at the bound refused: %v", size, err)
		}
		if _, err := ParseBatchHeader(bufio.NewReaderSize(bytes.NewReader(line(maxBatchHeader+1)), size)); err == nil {
			t.Errorf("%d-byte buffer: header past the bound accepted", size)
		}
	}
}

// serveState reads a daemon's ingest state in process.
func serveState(t *testing.T, h http.Handler) ingestState {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var st ingestState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status: %v: %s", err, rec.Body)
	}
	return st
}

// FuzzJSONDemandPost posts arbitrary bytes as a JSON demand post, in
// process, to a lease-fed shard and to a daemon with the batch class, so
// both "gate" and "jobs" are reached. Every answer is 200 or 4xx, never
// 5xx or a panic, and a body that is not exactly one JSON value is 400.
// A 4xx leaves the engine cursor, the price feed and the job ledger as
// they were; a 200 advances the engine exactly one step and takes in
// exactly the posted jobs' energy, served, shed or queued.
func FuzzJSONDemandPost(f *testing.F) {
	leaseTS, sys := leaseServer(f)
	batchTS, _ := batchServer(f)
	daemons := []http.Handler{leaseTS.Config.Handler, batchTS.Config.Handler}
	prices, err := json.Marshal(pricePost{At: sys.Market.Start, Prices: hubPrices(sys, 30)})
	if err != nil {
		f.Fatal(err)
	}
	for _, h := range daemons {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/prices", bytes.NewReader(prices)))
		if rec.Code != http.StatusOK {
			f.Fatalf("seeding prices: %d %s", rec.Code, rec.Body)
		}
	}

	ns := len(sys.Fleet.States)
	open, closed := true, false
	job := JobPost{Cluster: sys.Fleet.Clusters[0].Code, DeadlineSteps: 6, EnergyKWh: 40, MinFraction: 0.5}
	negative := flatDemand(ns, 500)
	negative[3] = -1
	for _, post := range []DemandPost{
		{Rates: flatDemand(ns, 500), Gate: &closed},
		{Rates: flatDemand(ns, 900), Gate: &open},
		{Rates: flatDemand(ns, 500), Jobs: []JobPost{job, job}},
		{Rates: flatDemand(ns, 500), Jobs: []JobPost{job}, Gate: &open},
		{At: sys.Market.Start, Rates: flatDemand(ns, 500)},
		{Rates: flatDemand(ns-1, 500), Gate: &closed},
		{Rates: negative, Jobs: []JobPost{job}},
		{Rates: flatDemand(ns, 500), Jobs: []JobPost{{Cluster: "nowhere", DeadlineSteps: 1, EnergyKWh: 1}}},
	} {
		b, err := json.Marshal(post)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{`{"gate":2}`, `{"jobs":[{"energy_kwh":1e308}]}`, `null`, `{}`, `[`, ``} {
		f.Add([]byte(s))
	}
	rates, err := json.Marshal(DemandPost{Rates: flatDemand(ns, 500), Gate: &closed})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append(slices.Clone(rates), rates...), " not json at all"...))
	f.Add(append(slices.Clone(rates), '}'))

	f.Fuzz(func(t *testing.T, body []byte) {
		// The daemon takes a body of exactly one JSON value, so a 200
		// answers a body this reading of the posted jobs decodes whole.
		var post DemandPost
		valid := json.Unmarshal(body, &post) == nil
		var kwh float64
		for _, j := range post.Jobs {
			kwh += j.EnergyKWh
		}
		for d, h := range daemons {
			before := serveState(t, h)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/demand", bytes.NewReader(body)))
			after := serveState(t, h)
			switch {
			case !valid && rec.Code != http.StatusBadRequest:
				t.Fatalf("daemon %d: answered %d to a body that is not one JSON value: %s", d, rec.Code, rec.Body)
			case rec.Code == http.StatusOK:
				arrived := (after.ServedKWh + after.ShedKWh + after.QueuedKWh) - (before.ServedKWh + before.ShedKWh + before.QueuedKWh)
				if after.Steps != before.Steps+1 || math.Abs(arrived-kwh) > 1e-9*max(1, math.Abs(kwh), after.ServedKWh+after.ShedKWh+after.QueuedKWh) {
					t.Fatalf("daemon %d: 200 moved %+v to %+v, want one step and %v kWh of jobs", d, before, after, kwh)
				}
			case rec.Code/100 == 4:
				if after != before {
					t.Fatalf("daemon %d: %d changed %+v to %+v: %s", d, rec.Code, before, after, rec.Body)
				}
			default:
				t.Fatalf("daemon %d: answered %d: %s", d, rec.Code, rec.Body)
			}
		}
	})
}

// feedCopy is a copy of a daemon's price feed, read under the lock that
// guards it.
type feedCopy struct {
	at []int64
	px []float64
}

func readFeed(srv *Server) feedCopy {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return feedCopy{slices.Clone(srv.feed.at), slices.Clone(srv.feed.px)}
}

// FuzzJSONPricePost posts arbitrary bytes as a JSON price post, in
// process, to a daemon. Every answer is 200 or 4xx, never 5xx or a
// panic. A 4xx leaves the feed's instants and rows as they were, so its
// entry count and every lookup are unchanged. A 200 needs an instant at
// or past the newest entry, and on an empty feed a price for every
// cluster; it appends one entry at the posted instant, or corrects the
// newest entry when the post re-prices that instant. Either way the
// posted hubs' clusters take the posted prices, every other cluster
// carries the previous newest vector, and the reply counts the posted
// hubs that host no cluster and the entries held.
func FuzzJSONPricePost(f *testing.F) {
	srv, _, sys := testServer(f)
	h := srv.Handler()
	nc := len(sys.Fleet.Clusters)
	hubClusters := map[string][]int{}
	for c, cl := range sys.Fleet.Clusters {
		hubClusters[cl.HubID] = append(hubClusters[cl.HubID], c)
	}
	start := sys.Market.Start
	hub := sys.Fleet.Clusters[0].HubID
	valid, err := json.Marshal(pricePost{At: start, Prices: hubPrices(sys, 30)})
	if err != nil {
		f.Fatal(err)
	}
	for _, post := range []pricePost{
		{At: start, Prices: hubPrices(sys, 30)},
		{At: start, Prices: map[string]float64{hub: 31}},
		{At: start.Add(time.Hour), Prices: map[string]float64{hub: 40, "NOWHERE": 1}},
		{At: start.Add(2 * time.Hour), Prices: map[string]float64{}},
		{At: start.Add(-time.Hour), Prices: hubPrices(sys, 20)},
		{At: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), Prices: hubPrices(sys, 30)},
	} {
		b, err := json.Marshal(post)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	dup := fmt.Sprintf(`{"at":%q,"prices":{%q:50,%q:51}}`, start.Add(3*time.Hour).Format(time.RFC3339), hub, hub)
	for _, s := range []string{dup, string(valid) + " junk", string(valid) + "}", `{"at":"2006-01-01T00:00:00Z"}`, `null`, ``} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		// Keep the feed short, so one input costs the same however many
		// ran before it: drop all but the newest entry.
		before := readFeed(srv)
		if n := len(before.at); n > 16 {
			srv.mu.Lock()
			srv.feed.prune(time.Unix(0, before.at[n-1]))
			srv.mu.Unlock()
			before = readFeed(srv)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/prices", bytes.NewReader(body)))
		after := readFeed(srv)
		switch {
		case rec.Code/100 == 4:
			if !slices.Equal(after.at, before.at) || !sameVec(after.px, before.px) {
				t.Fatalf("%d changed the feed: %+v, was %+v: %s", rec.Code, after, before, rec.Body)
			}
		case rec.Code == http.StatusOK:
			var post pricePost
			if err := json.Unmarshal(body, &post); err != nil {
				t.Fatalf("200 for a body that is no price post: %v: %q", err, body)
			}
			n, at := len(before.at), post.At.UnixNano()
			if n > 0 && at < before.at[n-1] {
				t.Fatalf("200 for a post at %v, before the newest entry %v", post.At, time.Unix(0, before.at[n-1]).UTC())
			}
			vec := make([]float64, nc)
			covered := make([]bool, nc)
			if n > 0 {
				copy(vec, before.px[(n-1)*nc:])
				for c := range covered {
					covered[c] = true
				}
			}
			ignored := 0
			for hub, price := range post.Prices {
				if len(hubClusters[hub]) == 0 {
					ignored++
				}
				for _, c := range hubClusters[hub] {
					vec[c], covered[c] = price, true
				}
			}
			if slices.Contains(covered, false) {
				t.Fatalf("200 for a post leaving a cluster unpriced: %q", body)
			}
			wantAt, wantPx := append(slices.Clone(before.at), at), append(slices.Clone(before.px), vec...)
			if n > 0 && at == before.at[n-1] {
				wantAt, wantPx = before.at, append(slices.Clone(before.px[:(n-1)*nc]), vec...)
			}
			if !slices.Equal(after.at, wantAt) || !sameVec(after.px, wantPx) {
				t.Fatalf("200 left the feed %+v, want %+v", after, feedCopy{wantAt, wantPx})
			}
			var reply struct {
				Ignored int `json:"ignored_hubs"`
				Entries int `json:"feed_entries"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Ignored != ignored || reply.Entries != len(wantAt) {
				t.Fatalf("reply %s (%v), want %d ignored hubs and %d entries", rec.Body, err, ignored, len(wantAt))
			}
		default:
			t.Fatalf("answered %d: %s", rec.Code, rec.Body)
		}
	})
}
