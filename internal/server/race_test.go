package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"powerroute/internal/core"
)

// TestConcurrentPricesDemandStatus drives the hot endpoints from
// independent goroutines — a price feeder posting JSON vectors at its own
// cadence, the demand loop routing intervals, status scrapers and
// checkpoint pulls — under -race in CI, on a plain daemon and on a
// lease-fed shard, whose demand rows carry gate bits into the latch the
// engine reads inside Step. Server.mu guards the engine, the price feed
// and that latch alike, so every response must be indistinguishable from
// some serial interleaving of the same requests ("single-mutex
// semantics"): prices land in chronological order, each status body is
// one consistent snapshot (steps never go backwards between reads,
// positive steps imply a positive bill), every checkpoint pull succeeds,
// and the final step count equals what the demand loop ingested.
func TestConcurrentPricesDemandStatus(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		_, ts, sys := testServer(t)
		concurrentPricesDemandStatus(t, ts.URL, sys, false)
	})
	t.Run("lease-fed", func(t *testing.T) {
		_, ts, sys := leaseServer(t)
		concurrentPricesDemandStatus(t, ts.URL, sys, true)
	})
}

func concurrentPricesDemandStatus(t *testing.T, url string, sys *core.System, gated bool) {
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	nc := len(sys.Fleet.Clusters)
	const steps = 40

	// Seed a covering vector so routing can start immediately.
	postJSON(t, url+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Price feeder: strictly increasing instants on a finer cadence than
	// the demand intervals, so commits land between routed rows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; !stopped(); i++ {
			at := start.Add(time.Duration(i) * time.Minute)
			body, err := json.Marshal(PricePost{At: at, Prices: hubPrices(sys, 30+float64(i%17))})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(url+"/v1/prices", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent price post %d: got %d: %s", i, resp.StatusCode, out)
				return
			}
		}
	}()

	// Status scrapers: each sees monotonically advancing, internally
	// consistent snapshots.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSteps := 0
			for !stopped() {
				resp, err := http.Get(url + "/v1/status")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status: got %d: %s", resp.StatusCode, body)
					return
				}
				var status struct {
					Steps       int     `json:"steps"`
					Cost        float64 `json:"total_cost_usd"`
					FeedEntries int     `json:"price_feed_entries"`
					Clusters    []json.RawMessage
				}
				if err := json.Unmarshal(body, &status); err != nil {
					t.Errorf("status body not JSON: %v: %s", err, body)
					return
				}
				if err := func() error {
					if status.Steps < lastSteps {
						return fmt.Errorf("steps went backwards: %d after %d", status.Steps, lastSteps)
					}
					if status.Steps > 0 && status.Cost <= 0 {
						return fmt.Errorf("torn snapshot: %d steps but cost %v", status.Steps, status.Cost)
					}
					if status.FeedEntries < 1 {
						return fmt.Errorf("feed entries %d, want >= 1", status.FeedEntries)
					}
					if len(status.Clusters) != nc {
						return fmt.Errorf("%d clusters in status, want %d", len(status.Clusters), nc)
					}
					return nil
				}(); err != nil {
					t.Error(err)
					return
				}
				lastSteps = status.Steps
			}
		}()
	}

	// Checkpoint puller: each pull takes the engine lock between routed
	// rows and must always succeed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			resp, err := http.Get(url + "/v1/checkpoint")
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("checkpoint: got %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()

	// Demand loop: the sequential spine the concurrent traffic runs
	// against. On the lease-fed shard every row carries its gate bit,
	// open on every third row.
	demand := flatDemand(ns, 1500)
	for i := 0; i < steps; i++ {
		post := DemandPost{At: start.Add(time.Duration(i) * time.Hour), Rates: demand}
		if gated {
			open := i%3 == 0
			post.Gate = &open
		}
		postJSON(t, url+"/v1/demand", post, http.StatusOK)
	}
	close(stop)
	wg.Wait()

	var status struct {
		Steps int     `json:"steps"`
		Cost  float64 `json:"total_cost_usd"`
	}
	if err := json.Unmarshal(get(t, url+"/v1/status", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.Steps != steps || status.Cost <= 0 {
		t.Fatalf("final status %+v, want %d steps and positive cost", status, steps)
	}
}

// TestConcurrentStalledDemandBody: the daemon reads a demand post whole
// before it takes Server.mu, so a client that stalls mid-body holds up no
// other request. A binary demand batch sends its header and row 0, then
// stalls while the daemon waits for row 1; meanwhile a status read, a
// metrics scrape, a checkpoint pull and a price post at the newest
// instant each answer within a 2 s client timeout. Then the body
// completes, and the batch routes both rows. On a plain daemon and on a
// lease-fed shard, whose batch is gates=1.
func TestConcurrentStalledDemandBody(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		_, ts, sys := testServer(t)
		stalledDemandBody(t, ts.Config.Handler, sys, false)
	})
	t.Run("lease-fed", func(t *testing.T) {
		_, ts, sys := leaseServer(t)
		stalledDemandBody(t, ts.Config.Handler, sys, true)
	})
}

// TestConcurrentReadsWhileLocked: GET /v1/status, GET /metrics and
// GET /v1/world take no lock. While the test holds Server.mu, as a
// routing batch would, each answers 200 within a 2 s client timeout, with
// the state the last commit published. On a plain daemon and on a
// lease-fed shard, whose demand is a gates=1 batch.
func TestConcurrentReadsWhileLocked(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		srv, ts, sys := testServer(t)
		readsWhileLocked(t, srv, ts.URL, sys, false)
	})
	t.Run("lease-fed", func(t *testing.T) {
		srv, ts, sys := leaseServer(t)
		readsWhileLocked(t, srv, ts.URL, sys, true)
	})
}

func readsWhileLocked(t *testing.T, srv *Server, url string, sys *core.System, gated bool) {
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	postJSON(t, url+"/v1/prices", PricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	rows := [][]float64{flatDemand(ns, 900), flatDemand(ns, 1400)}
	body := demandBatch(start, time.Hour, rows).Bytes()
	if gated {
		body = gatedBatch(start, rows, []byte{1, 0})
	}
	if code := postBatch(t, url, bytes.NewReader(body)); code != http.StatusOK {
		t.Fatalf("demand batch: got %d", code)
	}
	world := get(t, url+"/v1/world", http.StatusOK)

	srv.mu.Lock()
	defer srv.mu.Unlock()
	wantStatus, wantMetrics := renderReads(srv.fleet, srv.eng.Snapshot(), srv.feed.entries())
	client := &http.Client{Timeout: 2 * time.Second}
	if status, metrics := servedReads(t, client, url); status != wantStatus || metrics != wantMetrics {
		t.Errorf("reads under the held lock answered\n%s\n%s\nwant the published state\n%s\n%s", status, metrics, wantStatus, wantMetrics)
	}
	resp, err := client.Get(url + "/v1/world")
	if err != nil {
		t.Fatalf("GET /v1/world under the held lock: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, world) {
		t.Errorf("GET /v1/world under the held lock: %d %v:\n%s\nwant\n%s", resp.StatusCode, err, got, world)
	}
}

// waitingBody is a request body that closes waiting when its reader
// first asks for more than its first n bytes: it has taken those and now
// waits on the client for the rest.
type waitingBody struct {
	io.ReadCloser
	n       int
	waiting chan struct{}
}

func (b *waitingBody) Read(p []byte) (int, error) {
	if b.n <= 0 && b.waiting != nil {
		close(b.waiting)
		b.waiting = nil
	}
	n, err := b.ReadCloser.Read(p)
	b.n -= n
	return n, err
}

func stalledDemandBody(t *testing.T, daemon http.Handler, sys *core.System, gated bool) {
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	h := BatchHeader{Kind: "demand", Start: start, Step: time.Hour, Rows: 2, Cols: ns, Gates: gated}
	var head, tail bytes.Buffer
	if err := h.Write(&head); err != nil {
		t.Fatal(err)
	}
	for i, b := range []*bytes.Buffer{&head, &tail} {
		if gated {
			b.WriteByte(byte(i))
		}
		b.Write(AppendRow(nil, flatDemand(ns, 500+200*float64(i))))
	}

	// The daemon reads the demand body through waitingBody, which says
	// when the daemon has read the header and row 0 and waits for row 1.
	waiting := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/demand" {
			r.Body = &waitingBody{ReadCloser: r.Body, n: head.Len(), waiting: waiting}
		}
		daemon.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	prices := PricePost{At: start, Prices: hubPrices(sys, 30)}
	postJSON(t, ts.URL+"/v1/prices", prices, http.StatusOK)

	// The body is a pipe: its header and row 0 go out, then it stalls
	// until tail is written. Closing the pipe at cleanup, before the
	// test server's own cleanup, frees a handler still reading it.
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.CloseWithError(errors.New("test over")) })
	type answer struct {
		code int
		body []byte
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/demand", ContentTypeDemandBatch, pr)
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, body, err}
	}()
	if _, err := pw.Write(head.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-waiting:
	case a := <-answered:
		t.Fatalf("the batch answered before its body was complete: %d %v: %s", a.code, a.err, a.body)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	body, err := json.Marshal(prices)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/v1/status", nil},
		{http.MethodGet, "/metrics", nil},
		{http.MethodGet, "/v1/checkpoint", nil},
		{http.MethodPost, "/v1/prices", body},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, bytes.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		began := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s while a demand body stalls: %v", probe.method, probe.path, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s while a demand body stalls: got %d: %s", probe.method, probe.path, resp.StatusCode, out)
		}
		t.Logf("%s %s answered in %v", probe.method, probe.path, time.Since(began))
	}

	if _, err := pw.Write(tail.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	a := <-answered
	if a.err != nil || a.code != http.StatusOK {
		t.Fatalf("stalled batch once complete: %d %v: %s", a.code, a.err, a.body)
	}
	var routed struct {
		Routed int `json:"routed"`
		Steps  int `json:"steps"`
	}
	if err := json.Unmarshal(a.body, &routed); err != nil || routed.Routed != 2 || routed.Steps != 2 {
		t.Fatalf("stalled batch answered %s (%v), want both rows routed", a.body, err)
	}
}
