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
	srv, ts := serve(t, sc)
	return srv, ts, sc
}

// serve wraps sc in an engine and HTTP server.
func serve(t *testing.T, sc sim.Scenario) (*server.Server, *httptest.Server) {
	t.Helper()
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
	return srv, ts
}

// TestReplayMatchesBatchRun is the online/batch equivalence check at full
// system scope: replaying the world through powerrouted's HTTP ingest
// (binary batches, price feed with reaction delay) must leave the daemon's
// engine with the exact Result — bit for bit — that the batch sim.Run
// produces for the same scenario. The daemon is built from the world
// flags powerrouted takes; the replay gets only the world options and
// -burst-hubs, so on the burst world it must regenerate the demand rows
// without the daemon's -threshold-km.
func TestReplayMatchesBatchRun(t *testing.T) {
	world := core.Options{Seed: 42, MarketMonths: 1, TraceDays: 7}
	for _, tc := range []struct {
		name        string
		thresholdKm float64
		burstHubs   string
	}{
		{"derived", 1500, ""},
		{"burst", 1000, "NP15+SP15,NYC+DOM"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flags := core.WorldFlags{
				Options:        world,
				Horizon:        "longrun",
				ThresholdKm:    tc.thresholdKm,
				PriceThreshold: routing.DefaultPriceThreshold,
				ReactionDelay:  sim.DefaultReactionDelay,
				BurstHubs:      tc.burstHubs,
			}
			sc, err := flags.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			srv, ts := serve(t, sc)

			var out strings.Builder
			// Batch size deliberately misaligned with the horizon so chunk
			// boundaries land mid-feed.
			if err := replay(&out, ts.URL, replayOptions{World: world, Batch: 100, Loops: 1, BurstHubs: tc.burstHubs}); err != nil {
				t.Fatal(err)
			}
			online, err := srv.Finalize()
			if err != nil {
				t.Fatal(err)
			}

			// Fresh scenario: the served engine's optimizer carries its
			// order cache.
			if sc, err = flags.Scenario(); err != nil {
				t.Fatal(err)
			}
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
			if tc.burstHubs != "" {
				used := 0
				for _, n := range online.BurstsUsed {
					used += n
				}
				if used == 0 {
					t.Fatal("the burst world spent no burst interval; the case checks nothing the derived one does not")
				}
			}
		})
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

// TestReplayArgumentValidation: bad knobs fail before any traffic, each
// with its own reason (the unreachable URL would fail every case too).
func TestReplayArgumentValidation(t *testing.T) {
	world := core.Options{Seed: 1, MarketMonths: 1, TraceDays: 1}
	for _, tc := range []struct {
		opt  replayOptions
		want string
	}{
		{replayOptions{Batch: 0, Loops: 1}, "non-positive batch size"},
		{replayOptions{Batch: 16, Loops: 0}, "non-positive loop count"},
		{replayOptions{Batch: 16, Loops: 1, KillAfter: -1}, "negative kill-after"},
		{replayOptions{Batch: 16, Loops: 1, BurstHubs: "NP15+SP15"}, "one region"},
		{replayOptions{Batch: 16, Loops: 1, BurstHubs: "NP15+XX,NYC+DOM"}, `unknown hub "XX"`},
	} {
		tc.opt.World = world
		var out strings.Builder
		if err := replay(&out, "http://127.0.0.1:1", tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want %q", tc.opt, err, tc.want)
		}
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
