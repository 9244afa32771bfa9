// Command powerroute-coord is the multi-region shard coordinator: the
// fleet-wide HTTP face of N powerrouted shard instances, one per
// electricity market region.
//
// It assembles the same deterministic joint world as powerrouted (match
// -seed/-months/-days/-horizon/-threshold-km/-price-threshold/
// -reaction-delay across the coordinator and every shard), discovers each
// shard's cluster/state ownership from its /v1/world, and then:
//
//   - fans POST /v1/prices out to every shard verbatim (shards ignore
//     hubs they host no cluster on),
//   - splits POST /v1/demand (JSON or binary batch) by state ownership
//     and posts each shard its own columns concurrently, forwarding each
//     deferrable batch job to the shard that owns its home cluster (a
//     jobs=1 row's WireJob.Cluster is a joint-fleet index, the order of
//     the coordinator's /v1/world, rewritten to the shard's own index),
//   - periodically pulls GET /v1/checkpoint from every shard, merges the
//     parts with sim.MergeCheckpoints, restores the merged state into a
//     joint-world engine, and serves fleet-wide GET /v1/status and
//     /metrics from that snapshot — bit-for-bit what one powerrouted
//     serving the unsplit world would report,
//   - serves GET /v1/checkpoint as the merged joint-world checkpoint
//     (restorable by a single powerrouted via PUT /v1/checkpoint).
//
// With -burst-hubs (matching every shard's) the joint world is the
// burst-exact clique world and the coordinator doubles as the burst-token
// lease broker: before each demand fan-out it resolves the fleet-wide
// 95/5 gate bit from the full demand row and posts the lease window to
// every shard's POST /v1/leases, so the sharded fleet's burst ledgers —
// and its books — match an unsplit powerrouted byte for byte.
//
// Usage:
//
//	powerrouted -addr 127.0.0.1:7950 -threshold-km 1000 -shard-count 2 -shard-index 0 &
//	powerrouted -addr 127.0.0.1:7951 -threshold-km 1000 -shard-count 2 -shard-index 1 &
//	powerroute-coord -addr 127.0.0.1:7946 -threshold-km 1000 \
//	    -shards http://127.0.0.1:7950,http://127.0.0.1:7951
//	tracegen -replay http://127.0.0.1:7946
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerroute/internal/batchspec"
	"powerroute/internal/coord"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/experiments"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main path.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powerroute-coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7946", "listen address")
	shards := fs.String("shards", "", "comma-separated powerrouted shard base URLs (required)")
	seed := fs.Int64("seed", experiments.DefaultSeed, "world seed (must match every shard's)")
	months := fs.Int("months", 0, "override market history length in months (0 = the paper's 39)")
	days := fs.Int("days", 0, "override traffic trace length in days (0 = the paper's 24)")
	horizon := fs.String("horizon", "longrun", "routing interval source: longrun (hourly) or trace (5-minute)")
	thresholdKm := fs.Float64("threshold-km", 1500, "optimizer distance threshold (must match the shards')")
	priceThreshold := fs.Float64("price-threshold", routing.DefaultPriceThreshold, "price differential dead-band ($/MWh)")
	delay := fs.Duration("reaction-delay", sim.DefaultReactionDelay, "lag between a price taking effect and the router seeing it")
	batchSpec := fs.String("batch-spec", "", "deferrable batch class, matching every shard's -batch-spec (empty = no batch class)")
	burstHubs := fs.String("burst-hubs", "", "coordinate the burst-exact clique world, matching every shard's -burst-hubs; the coordinator then brokers burst-token leases to the shards")
	mergeEvery := fs.Duration("merge-every", 10*time.Second, "how often to pull and merge shard checkpoints (0 = on demand only)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "powerroute-coord: unexpected arguments %v\n", fs.Args())
		return 2
	}
	urls := splitURLs(*shards)
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "powerroute-coord: -shards URL,URL,... is required")
		return 2
	}
	if *mergeEvery < 0 {
		fmt.Fprintln(stderr, "powerroute-coord: negative -merge-every")
		return 2
	}

	if *burstHubs != "" && *batchSpec != "" {
		fmt.Fprintln(stderr, "powerroute-coord: -burst-hubs and -batch-spec are not supported together")
		return 2
	}
	if *burstHubs != "" && *horizon != "longrun" {
		fmt.Fprintln(stderr, "powerroute-coord: -burst-hubs serves the hourly long-run horizon only")
		return 2
	}

	sys, err := core.NewSystem(core.Options{Seed: *seed, MarketMonths: *months, TraceDays: *days})
	if err != nil {
		fmt.Fprintln(stderr, "powerroute-coord:", err)
		return 1
	}
	var sc sim.Scenario
	if *burstHubs != "" {
		// The burst-exact clique world. SelfGate on the joint scenario does
		// double duty: it marks the world as burst-coordinated (arming the
		// coordinator's lease broker) and lets merged lease-bearing shard
		// checkpoints restore into the joint engine for /v1/status.
		pairs, err := core.ParseBurstHubs(*burstHubs)
		if err != nil {
			fmt.Fprintln(stderr, "powerroute-coord:", err)
			return 2
		}
		bw, err := sys.BurstWorld(pairs, *thresholdKm, *priceThreshold)
		if err != nil {
			fmt.Fprintln(stderr, "powerroute-coord:", err)
			return 1
		}
		if sc, err = sys.BurstScenario(bw, *thresholdKm, *priceThreshold, *delay); err != nil {
			fmt.Fprintln(stderr, "powerroute-coord:", err)
			return 1
		}
		sc.BurstGate = sim.SelfGate{}
	} else {
		sc = sim.Scenario{
			Fleet:         sys.Fleet,
			Energy:        energy.OptimisticFuture,
			Market:        sys.Market,
			ReactionDelay: *delay,
		}
		switch *horizon {
		case "longrun":
			sc.Demand = sys.LongRun
			sc.Start = sys.Market.Start
			sc.Steps = sys.Market.Hours
			sc.Step = time.Hour
		case "trace":
			demand, err := sim.FromTrace(sys.Trace)
			if err != nil {
				fmt.Fprintln(stderr, "powerroute-coord:", err)
				return 1
			}
			sc.Demand = demand
			sc.Start = sys.Trace.Start
			sc.Steps = sys.Trace.Samples
			sc.Step = 5 * time.Minute
		default:
			fmt.Fprintf(stderr, "powerroute-coord: unknown horizon %q (longrun or trace)\n", *horizon)
			return 2
		}
		opt, err := routing.NewPriceOptimizer(sys.Fleet, *thresholdKm, *priceThreshold)
		if err != nil {
			fmt.Fprintln(stderr, "powerroute-coord:", err)
			return 1
		}
		sc.Policy = opt
	}

	// The batch class must be configured against the same joint world the
	// shards split: restoring merged shard checkpoints that carry batch
	// queue sections requires the joint scenario to carry the scheduler
	// config too (and with identical capacities and price gates, or the
	// merged /v1/status would diverge from an unsplit powerrouted's).
	if *batchSpec != "" {
		cfg, err := batchspec.Parse(*batchSpec, sys.Fleet, sys.Market)
		if err != nil {
			fmt.Fprintln(stderr, "powerroute-coord:", err)
			return 2
		}
		sc.Batch = cfg
	}

	co, err := coord.New(ctx, coord.Config{Scenario: sc, ShardURLs: urls})
	if err != nil {
		fmt.Fprintln(stderr, "powerroute-coord:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "powerroute-coord:", err)
		return 1
	}
	httpSrv := server.NewHTTPServer(co.Handler())
	fmt.Fprintf(stdout, "powerroute-coord: listening on %s, coordinating %d shards (policy %s, step %v)\n",
		ln.Addr(), len(urls), sc.Policy.Name(), sc.Step)
	for i, url := range urls {
		fmt.Fprintf(stdout, "powerroute-coord:   shard %d: %s\n", i, url)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	go co.Run(ctx, *mergeEvery, stderr)

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "powerroute-coord:", err)
		return 1
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "powerroute-coord: shutdown:", err)
	}
	return 0
}

// splitURLs parses the -shards flag, trimming whitespace and trailing
// slashes and dropping empty entries.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}
