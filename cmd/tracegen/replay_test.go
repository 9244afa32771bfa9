package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// replayWorld assembles the daemon side of a replay: the same world the
// generator will regenerate, wrapped in an engine and HTTP server.
func replayWorld(t *testing.T, seed int64, months, days int) (*server.Server, *httptest.Server, sim.Scenario) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: seed, MarketMonths: months, TraceDays: days})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.Scenario(core.LongRun39Months, energy.OptimisticFuture, sim.DefaultReactionDelay)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy = opt
	eng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, sc
}

// TestReplayMatchesBatchRun is the online/batch equivalence check at full
// system scope: replaying the world through powerrouted's HTTP ingest
// (binary batches, price feed with reaction delay) must leave the daemon's
// engine with the exact Result — bit for bit — that the batch sim.Run
// produces for the same scenario.
func TestReplayMatchesBatchRun(t *testing.T) {
	const (
		seed   = int64(42)
		months = 1
		days   = 7
	)
	srv, ts, sc := replayWorld(t, seed, months, days)

	var out strings.Builder
	// Batch size deliberately misaligned with the horizon so chunk
	// boundaries land mid-feed.
	if err := replay(&out, ts.URL, replayOptions{World: core.Options{Seed: seed, MarketMonths: months, TraceDays: days}, Batch: 100, Loops: 1}); err != nil {
		t.Fatal(err)
	}
	online, err := srv.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	// Fresh policy: the served engine's optimizer carries its order cache.
	opt, err := routing.NewPriceOptimizer(sc.Fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy = opt
	batch, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(online, batch) {
		t.Fatalf("online replay diverged from batch Run:\nonline: %+v\nbatch:  %+v", online, batch)
	}
	if !strings.Contains(out.String(), "routed") {
		t.Errorf("replay summary missing, got %q", out.String())
	}
}

// TestReplayLoops: a second pass over the price horizon keeps routing
// (periodic demand, cyclic prices) and doubles the step count.
func TestReplayLoops(t *testing.T) {
	srv, ts, sc := replayWorld(t, 7, 1, 7)
	var out strings.Builder
	if err := replay(&out, ts.URL, replayOptions{World: core.Options{Seed: 7, MarketMonths: 1, TraceDays: 7}, Batch: 512, Loops: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * sc.Steps; res.Steps != want {
		t.Fatalf("looped replay routed %d steps, want %d", res.Steps, want)
	}
	if res.TotalCost <= 0 {
		t.Fatal("looped replay billed nothing")
	}
}

// TestReplayArgumentValidation: bad knobs fail before any traffic.
func TestReplayArgumentValidation(t *testing.T) {
	var out strings.Builder
	if err := replay(&out, "http://127.0.0.1:1", replayOptions{World: core.Options{Seed: 1, MarketMonths: 1, TraceDays: 1}, Batch: 0, Loops: 1}); err == nil {
		t.Error("batch 0 accepted")
	}
	if err := replay(&out, "http://127.0.0.1:1", replayOptions{World: core.Options{Seed: 1, MarketMonths: 1, TraceDays: 1}, Batch: 16, Loops: 0}); err == nil {
		t.Error("loop 0 accepted")
	}
	if err := replay(&out, "http://127.0.0.1:1", replayOptions{World: core.Options{Seed: 1, MarketMonths: 1, TraceDays: 1}, Batch: 16, Loops: 1, KillAfter: -1}); err == nil {
		t.Error("negative kill-after accepted")
	}
}

// TestReplayKillRestoreResume is the crash-recovery drill at full system
// scope, minus the process kill (the CI e2e job does that part in anger):
// replay half the horizon into daemon A, snapshot it over GET
// /v1/checkpoint, restore the snapshot into a fresh daemon B over PUT
// /v1/checkpoint (empty price feed, exactly like a -restore restart), and
// finish the horizon with -resume. Daemon B's final Result must be
// bit-for-bit the uninterrupted batch Run's.
func TestReplayKillRestoreResume(t *testing.T) {
	const (
		seed   = int64(42)
		months = 1
		days   = 7
	)
	_, tsA, sc := replayWorld(t, seed, months, days)
	half := sc.Steps / 2
	var out strings.Builder
	if err := replay(&out, tsA.URL, replayOptions{World: core.Options{Seed: seed, MarketMonths: months, TraceDays: days}, Batch: 100, Loops: 1, KillAfter: half}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(tsA.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	snapshot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/checkpoint: %d: %s", resp.StatusCode, snapshot)
	}

	srvB, tsB, _ := replayWorld(t, seed, months, days)
	req, err := http.NewRequest(http.MethodPut, tsB.URL+"/v1/checkpoint", bytes.NewReader(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", server.ContentTypeCheckpoint)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/checkpoint: %d: %s", resp.StatusCode, msg)
	}

	if err := replay(&out, tsB.URL, replayOptions{World: core.Options{Seed: seed, MarketMonths: months, TraceDays: days}, Batch: 100, Loops: 1, Resume: true}); err != nil {
		t.Fatal(err)
	}
	resumed, err := srvB.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	opt, err := routing.NewPriceOptimizer(sc.Fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy = opt
	batch, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, batch) {
		t.Fatalf("kill/restore/resume replay diverged from batch Run:\nresumed: %+v\nbatch:   %+v", resumed, batch)
	}
}
