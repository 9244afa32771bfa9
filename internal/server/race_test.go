package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
		ts, sys := leaseServer(t)
		concurrentPricesDemandStatus(t, ts.URL, sys, true)
	})
}

func concurrentPricesDemandStatus(t *testing.T, url string, sys *core.System, gated bool) {
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	nc := len(sys.Fleet.Clusters)
	const steps = 40

	// Seed a covering vector so routing can start immediately.
	postJSON(t, url+"/v1/prices", pricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)

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
			body, err := json.Marshal(pricePost{At: at, Prices: hubPrices(sys, 30+float64(i%17))})
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
