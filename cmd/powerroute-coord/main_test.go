package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// syncBuf is a goroutine-safe writer shared with the serving goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`listening on (\S+),`)

// startShards builds the 1-month/7-day world at a 1000 km reach, splits
// it into its two market regions, and serves each from a real shard
// daemon behind httptest.
func startShards(t *testing.T) []string {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: 42, MarketMonths: 1, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := routing.NewPriceOptimizer(sys.Fleet, 1000, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Scenario{
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
	partition, err := sim.PartitionByRouting(opt, sys.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(partition)
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

// TestCoordServeAndShutdown boots the coordinator against two live shard
// daemons, checks the fleet-wide world view, and shuts down gracefully.
func TestCoordServeAndShutdown(t *testing.T) {
	urls := startShards(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuf
	done := make(chan int, 1)
	argv := []string{"-addr", "127.0.0.1:0", "-months", "1", "-days", "7",
		"-threshold-km", "1000", "-shards", strings.Join(urls, ",")}
	go func() { done <- run(ctx, argv, &out, &errOut) }()

	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never listened; stdout %q stderr %q", out.String(), errOut.String())
		}
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/v1/world")
	if err != nil {
		t.Fatal(err)
	}
	var world struct {
		Shards   []string `json:"shards"`
		Clusters []struct {
			Code  string `json:"code"`
			Shard string `json:"shard"`
		} `json:"clusters"`
		States []string `json:"states"`
	}
	err = json.NewDecoder(resp.Body).Decode(&world)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(world.Shards) != 2 || len(world.Clusters) != 9 || len(world.States) != 51 {
		t.Fatalf("fleet-wide world has %d shards, %d clusters, %d states", len(world.Shards), len(world.Clusters), len(world.States))
	}
	for _, cl := range world.Clusters {
		if cl.Shard == "" {
			t.Errorf("cluster %s has no owning shard", cl.Code)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; stderr %q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}

// TestCoordBadInvocations covers flag and startup failures.
func TestCoordBadInvocations(t *testing.T) {
	const shard = "http://127.0.0.1:1"
	cases := []struct {
		argv []string
		want int
		msg  string // stderr must contain it
	}{
		{[]string{}, 2, "-shards"}, // -shards required
		{[]string{"-shards", shard, "-horizon", "nope"}, 2, "horizon"},
		{[]string{"-shards", shard, "stray"}, 2, "unexpected"},
		// Unreachable shard: discovery fails at startup.
		{[]string{"-shards", shard, "-months", "1", "-days", "7"}, 1, ""},
		// World-flag usage errors, refused before any shard is contacted.
		{[]string{"-shards", shard, "-burst-hubs", "NP15+SP15,NYC+DOM", "-batch-spec", "w=20,pct=0.3", "-months", "1", "-days", "2"}, 2, "not supported together"},
		{[]string{"-shards", shard, "-burst-hubs", "NP15+SP15,NYC+DOM", "-horizon", "trace", "-months", "1", "-days", "2"}, 2, "long-run horizon only"},
		{[]string{"-shards", shard, "-burst-hubs", "NP15+SP15", "-months", "1", "-days", "2"}, 2, "one region"},
		{[]string{"-shards", shard, "-burst-hubs", "NP15+SP15,NYC", "-months", "1", "-days", "2"}, 2, "exactly two hub IDs"},
		{[]string{"-shards", shard, "-burst-hubs", "NP15+XX,NYC+DOM", "-months", "1", "-days", "2"}, 2, `unknown hub "XX"`},
		{[]string{"-shards", shard, "-batch-spec", "w=20", "-months", "1", "-days", "2"}, 2, "-batch-spec"},
		// flag parses NaN; the optimizer refuses it before any shard is
		// contacted.
		{[]string{"-shards", shard, "-threshold-km", "NaN", "-months", "1", "-days", "2"}, 1, "distance threshold NaN"},
		{[]string{"-shards", shard, "-price-threshold", "NaN", "-months", "1", "-days", "2"}, 1, "price threshold NaN"},
	}
	for _, tc := range cases {
		var out, errOut syncBuf
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		code := run(ctx, tc.argv, &out, &errOut)
		cancel()
		if code != tc.want {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.argv, code, tc.want, errOut.String())
		}
		if !strings.Contains(errOut.String(), tc.msg) {
			t.Errorf("%v: stderr %q does not mention %q", tc.argv, errOut.String(), tc.msg)
		}
	}
}
