// Command powerroute-coord is the multi-region shard coordinator: the
// fleet-wide HTTP face of N powerrouted shard instances, one per
// electricity market region.
//
// It registers the same world flags as powerrouted (core.WorldFlags) and
// builds the same deterministic joint world from them (give the
// coordinator and every shard equal values). The world's market regions
// are its routing partition, so each shard's clusters and states follow
// from the world: -shards lists the shard URLs in -shard-index order, and
// the coordinator refuses to start unless each shard's /v1/world serves
// its region. It then:
//
//   - splits a POST /v1/prices binary batch by hub, posting each shard
//     only the columns of the hubs its clusters sit on, and checks a JSON
//     price post as a shard would before forwarding it to every shard
//     (shards ignore hubs they host no cluster on),
//   - splits POST /v1/demand (JSON or binary batch) by state ownership
//     and posts each shard its own columns concurrently, forwarding each
//     deferrable batch job to the shard that owns its home cluster (a
//     jobs=1 row's WireJob.Cluster is a joint-fleet index, the order of
//     the coordinator's /v1/world, rewritten to the shard's own index),
//   - answers every GET /v1/status and /metrics by pulling GET
//     /v1/checkpoint from every shard, merging the parts with
//     sim.MergeCheckpoints and restoring the merged state into a
//     joint-world engine — bit-for-bit what one powerrouted serving the
//     unsplit world would report; when a pull fails it serves the newest
//     snapshot a read merged, marked with an X-Coord-Degraded header,
//     and 502 while none has,
//   - serves GET /v1/checkpoint as the merged joint-world checkpoint
//     (restorable by a single powerrouted via PUT /v1/checkpoint).
//
// With -burst-hubs (matching every shard's) the joint world is the
// burst-exact clique world and the coordinator doubles as the burst-token
// lease broker: it resolves each demand row's fleet-wide 95/5 gate bit
// from the full row and sends it with every shard's share of the row, so
// the sharded fleet's burst ledgers — and its books — match an unsplit
// powerrouted byte for byte.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerroute/internal/coord"
	"powerroute/internal/core"
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
	var world core.WorldFlags
	world.Register(fs)
	addr := fs.String("addr", "127.0.0.1:7946", "listen address")
	shards := fs.String("shards", "", "comma-separated powerrouted shard base URLs, in -shard-index order (required)")
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

	sc, err := world.Scenario()
	if err != nil {
		fmt.Fprintln(stderr, "powerroute-coord:", err)
		if errors.Is(err, core.ErrUsage) {
			return 2
		}
		return 1
	}
	if world.BurstHubs != "" {
		// SelfGate on the joint scenario does double duty: it marks the
		// world as burst-coordinated (arming the coordinator's lease
		// broker) and lets merged lease-bearing shard checkpoints restore
		// into the joint engine for /v1/status.
		sc.BurstGate = sim.SelfGate{}
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
