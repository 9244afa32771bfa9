// Command powerrouted is the online routing daemon: the paper's §6.1
// mapping system as a long-running HTTP service. It assembles the
// deterministic synthetic world (fleet, energy model, market geometry),
// wraps an incremental sim.Engine in internal/server, and then routes
// whatever price and demand feeds arrive over HTTP — one routing decision
// per demand interval, with the running bill, peaks, and battery
// state-of-charge queryable while it serves.
//
// Usage:
//
//	powerrouted [-addr HOST:PORT] [-seed N] [-months M] [-days D]
//	            [-horizon longrun|trace] [-threshold-km KM]
//	            [-price-threshold D] [-reaction-delay DUR]
//	            [-batch-spec w=W,pct=Q[,guard=0|1][,migrate=0|1]]
//	            [-state-dir DIR] [-checkpoint-every DUR] [-restore]
//	            [-shard-count N -shard-index I]
//	            [-burst-hubs PAIR,PAIR,...]
//
// The nine world flags (-seed, -months, -days, -horizon, -threshold-km,
// -price-threshold, -reaction-delay, -batch-spec, -burst-hubs) are
// core.WorldFlags, which powerroute-coord registers too; its Scenario
// builds the joint world before -shard-count splits it.
//
// -burst-hubs replaces the derived world with the burst-exact clique
// world (core.BurstWorld): each comma-separated hub pair becomes one
// routing-closed region, soft caps are armed so the 95/5 burst gate
// genuinely fires, and sharded runs stay bit-identical to the joint
// engine. A whole-world daemon self-resolves the gate; a -shard-count
// daemon instead replays burst-token lease windows posted to its
// POST /v1/leases by the coordinator feeding it (powerroute-coord).
//
// -batch-spec turns on the deferrable traffic class: each cluster gets a
// batch serving capacity of W watts per server and a price gate at the
// Q-th quantile of its hub's real-time price history, with the demand-peak
// guard and cross-region migration togglable. Jobs then arrive over POST
// /v1/demand (JSON "jobs" or the jobs=1 binary batch form) and are
// served, deferred, migrated, or shed by the engine's scheduler.
//
// Feed it with cmd/tracegen's replay mode:
//
//	powerrouted -addr 127.0.0.1:7946 &
//	tracegen -replay http://127.0.0.1:7946
//
// With -state-dir the daemon is durable: engine state (billing meters,
// monthly demand peaks, 95/5 burst budgets, battery state-of-charge, step
// cursor) is checkpointed to DIR/checkpoint.ckpt periodically and on
// graceful shutdown, with atomic temp-file+rename writes. After a crash,
// -restore resumes mid-horizon from the newest checkpoint; the checkpoint
// carries a hash of the world that produced it, and the daemon refuses to
// restore into a different one (wrong -seed/-months/-horizon/tariff).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain, a final checkpoint is written (when -state-dir is set), the
// engine's books are closed, and a final bill summary is printed.
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
	"path/filepath"
	"syscall"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main path. It blocks until ctx is cancelled (signal)
// or startup fails, and returns the process exit code.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powerrouted", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var world core.WorldFlags
	world.Register(fs)
	addr := fs.String("addr", "127.0.0.1:7946", "listen address")
	stateDir := fs.String("state-dir", "", "directory for durable engine checkpoints (empty = no persistence)")
	ckptEvery := fs.Duration("checkpoint-every", time.Minute, "periodic checkpoint interval when -state-dir is set (0 = shutdown-only)")
	restore := fs.Bool("restore", false, "resume from -state-dir's checkpoint instead of starting fresh")
	shardCount := fs.Int("shard-count", 1, "serve one shard of the world split into this many market regions (1 = the whole world)")
	shardIndex := fs.Int("shard-index", 0, "which shard to serve when -shard-count > 1 (0-based)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "powerrouted: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *restore && *stateDir == "" {
		fmt.Fprintln(stderr, "powerrouted: -restore requires -state-dir")
		return 2
	}
	if *ckptEvery < 0 {
		fmt.Fprintln(stderr, "powerrouted: negative -checkpoint-every")
		return 2
	}
	if *shardCount < 1 || *shardIndex < 0 || *shardIndex >= *shardCount {
		fmt.Fprintf(stderr, "powerrouted: -shard-index %d out of range for -shard-count %d\n", *shardIndex, *shardCount)
		return 2
	}

	sc, err := world.Scenario()
	if err != nil {
		fmt.Fprintln(stderr, "powerrouted:", err)
		if errors.Is(err, core.ErrUsage) {
			return 2
		}
		return 1
	}

	// Multi-region sharding: this instance serves one routing-closed
	// region of the joint world. The partition is derived deterministically
	// from the fleet and the optimizer's reach, so every shard (and the
	// coordinator) computes the same split from the same flags.
	if *shardCount > 1 {
		partition, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
		if err != nil {
			fmt.Fprintln(stderr, "powerrouted:", err)
			return 1
		}
		if got := partition.Shards(); got != *shardCount {
			fmt.Fprintf(stderr, "powerrouted: the world splits into %d market regions at -threshold-km %g, not %d (the paper's 1500 km reach spans one region; try 1000 for 2 or 600 for 3)\n",
				got, world.ThresholdKm, *shardCount)
			return 2
		}
		subs, err := sc.Shard(partition)
		if err != nil {
			fmt.Fprintln(stderr, "powerrouted:", err)
			return 1
		}
		sc = subs[*shardIndex]
		codes := make([]string, len(sc.Fleet.Clusters))
		for i, cl := range sc.Fleet.Clusters {
			codes[i] = cl.Code
		}
		fmt.Fprintf(stdout, "powerrouted: serving shard %d/%d: clusters %v, %d states\n",
			*shardIndex, *shardCount, codes, len(sc.Fleet.States))
	}

	// Burst gate wiring: a whole-world engine (fresh or restored) resolves
	// the fleet-wide gate itself; a shard daemon cannot see the fleet's
	// demand, so it replays gate bits the coordinator posts to /v1/leases.
	var leases *sim.LeaseStore
	if world.BurstHubs != "" {
		if *shardCount > 1 {
			leases = &sim.LeaseStore{}
			sc.BurstGate = leases
		} else {
			sc.BurstGate = sim.SelfGate{}
		}
	}

	var ckptPath string
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "powerrouted:", err)
			return 1
		}
		ckptPath = filepath.Join(*stateDir, "checkpoint.ckpt")
	}
	var eng *sim.Engine
	if *restore {
		cp, err := sim.ReadCheckpointFile(ckptPath)
		if err != nil {
			fmt.Fprintf(stderr, "powerrouted: reading checkpoint %s: %v\n", ckptPath, err)
			return 1
		}
		if eng, err = sim.Restore(sc, cp); err != nil {
			fmt.Fprintln(stderr, "powerrouted:", err)
			return 1
		}
		fmt.Fprintf(stdout, "powerrouted: restored %s at step %d (next interval %v)\n",
			ckptPath, cp.StepsRun, eng.Next())
	} else {
		if eng, err = sim.NewEngine(sc); err != nil {
			fmt.Fprintln(stderr, "powerrouted:", err)
			return 1
		}
	}
	srv, err := server.New(server.Config{Engine: eng, Leases: leases})
	if err != nil {
		fmt.Fprintln(stderr, "powerrouted:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "powerrouted:", err)
		return 1
	}
	httpSrv := server.NewHTTPServer(srv.Handler())
	fmt.Fprintf(stdout, "powerrouted: listening on %s (policy %s, step %v, %d clusters, %d states)\n",
		ln.Addr(), sc.Policy.Name(), sc.Step, len(sc.Fleet.Clusters), len(sc.Fleet.States))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Periodic checkpointing: each tick snapshots the engine under the
	// server lock and atomically replaces the state file, so a SIGKILL at
	// any instant leaves either the previous or the new checkpoint — never
	// a torn one.
	var ckptDone chan struct{}
	if ckptPath != "" && *ckptEvery > 0 {
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := srv.WriteCheckpointFile(ckptPath); err != nil {
						fmt.Fprintln(stderr, "powerrouted: checkpoint:", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "powerrouted:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight requests, write a final
	// checkpoint, then close the books.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "powerrouted: shutdown:", err)
	}
	if ckptDone != nil {
		<-ckptDone
	}
	if ckptPath != "" {
		if err := srv.WriteCheckpointFile(ckptPath); err != nil {
			fmt.Fprintln(stderr, "powerrouted: final checkpoint:", err)
		} else {
			fmt.Fprintf(stdout, "powerrouted: checkpoint written to %s\n", ckptPath)
		}
	}
	if res, err := srv.Finalize(); err != nil {
		// Expected when the daemon is stopped before any traffic arrived.
		fmt.Fprintf(stdout, "powerrouted: no intervals routed (%v)\n", err)
	} else {
		fmt.Fprintf(stdout, "powerrouted: routed %d intervals, total bill $%.2f, energy %.1f MWh, mean distance %.0f km\n",
			res.Steps, float64(res.TotalCost), res.TotalEnergy.MegawattHours(), res.MeanDistanceKm)
	}
	return 0
}
