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
)

// TestConcurrentPricesDemandStatus drives the three hot endpoints from
// independent goroutines — a price feeder posting JSON vectors at its own
// cadence, the demand loop routing intervals, and status scrapers — the
// workload the sharded feed exists for, under -race in CI. Every
// response must be indistinguishable from some serial interleaving of
// the same requests ("single-mutex semantics"): prices land in
// chronological order, each status body is one consistent snapshot
// (steps never go backwards between reads, positive steps imply a
// positive bill), and the final step count equals what the demand loop
// ingested.
func TestConcurrentPricesDemandStatus(t *testing.T) {
	_, ts, sys := testServer(t)
	start := sys.Market.Start
	ns := len(sys.Fleet.States)
	nc := len(sys.Fleet.Clusters)
	const steps = 40

	// Seed a covering vector so routing can start immediately.
	postJSON(t, ts.URL+"/v1/prices", pricePost{At: start, Prices: hubPrices(sys, 30)}, http.StatusOK)

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
			resp, err := http.Post(ts.URL+"/v1/prices", "application/json", bytes.NewReader(body))
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
				resp, err := http.Get(ts.URL + "/v1/status")
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

	// Demand loop: the sequential spine the concurrent traffic runs
	// against.
	demand := flatDemand(ns, 1500)
	for i := 0; i < steps; i++ {
		at := start.Add(time.Duration(i) * time.Hour)
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
