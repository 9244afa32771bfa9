// Command tracegen exports the synthetic world as CSV traces: hourly
// real-time and day-ahead prices per hub, the daily Northwest series, and
// the 5-minute per-state CDN demand trace, in the tracefile formats, for
// plotting and analysis outside the simulator. No simulator input reads
// them back: every binary regenerates the world from its seed.
//
// It is also the load generator for the powerrouted daemon: -replay
// regenerates the same world (match the daemon's -seed/-months/-days) and
// streams the full price history plus the hourly long-run demand through
// the daemon's ingest endpoints, one routing decision per hour, at a
// configurable speedup. A sharded fleet is replayed through its
// powerroute-coord coordinator, which splits every batch across the
// shards and sends each row's burst gate bit with it.
//
// Usage:
//
//	tracegen [-seed N] [-months M] [-days D] -out DIR
//	tracegen [-seed N] [-months M] [-days D] -replay URL
//	         [-speedup X] [-batch N] [-loop N] [-kill-after N] [-resume]
//	         [-batch-spec every=N,kwh=E,slack=S,floor=F]
//	         [-burst-hubs SPEC]
//
// -burst-hubs switches the replay to the burst-exact clique world's
// demand (see core.BurstDemand) — start the daemons with the same
// -burst-hubs. That demand depends on neither the hub pairs nor the
// daemons' -threshold-km, so the replay only checks the spec.
//
// -batch-spec folds a deterministic deferrable-job load into the demand
// replay (against a daemon started with its own -batch-spec): every N
// steps each cluster receives one job of E kWh, due S steps later, with a
// partial-execution floor of F. Jobs are keyed to absolute step numbers,
// so a -resume replay regenerates exactly the jobs the interrupted run
// would have posted. Through a coordinator, each job's cluster index is
// a joint-fleet index; the coordinator forwards the job to its shard.
//
// With -speedup 0 (the default) the replay free-runs as fast as the daemon
// routes, reporting sustained decision throughput; -speedup 3600 replays
// one simulated hour per wall second.
//
// -kill-after and -resume are the crash-recovery drill: -kill-after N
// stops the replay after N routed steps (kill the daemon there), and
// -resume asks the daemon where it stands — e.g. after powerrouted
// -restore — and finishes the horizon from that step, re-posting the
// reaction-delay price lookback so the resumed run is bit-identical to an
// uninterrupted one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"powerroute/internal/core"
	"powerroute/internal/timeseries"
	"powerroute/internal/tracefile"
)

func main() {
	var world core.Options
	world.Register(flag.CommandLine)
	out := flag.String("out", "", "output directory (required unless -replay)")
	replayURL := flag.String("replay", "", "powerrouted base URL to replay the world against (e.g. http://127.0.0.1:7946)")
	speedup := flag.Float64("speedup", 0, "replay pacing: simulated seconds per wall second (0 = as fast as possible)")
	batch := flag.Int("batch", 1024, "replay ingest batch size in steps")
	loops := flag.Int("loop", 1, "replay the price horizon this many times")
	killAfter := flag.Int("kill-after", 0, "stop the replay after this many routed steps (0 = full horizon; crash-drill mode)")
	resume := flag.Bool("resume", false, "resume from the daemon's next expected step (after powerrouted -restore)")
	batchSpec := flag.String("batch-spec", "", "deferrable-job load riding the demand replay: every=<steps>,kwh=<energy>,slack=<deadline steps>,floor=<min fraction> (empty = no jobs)")
	burstHubs := flag.String("burst-hubs", "", "replay the burst-exact clique world instead of the derived one (match the daemons' -burst-hubs)")
	flag.Parse()
	if *replayURL != "" {
		opt := replayOptions{
			World:     world,
			Batch:     *batch,
			Loops:     *loops,
			Speedup:   *speedup,
			KillAfter: *killAfter,
			Resume:    *resume,
			BurstHubs: *burstHubs,
		}
		if *batchSpec != "" {
			spec, err := parseJobSpec(*batchSpec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracegen:", err)
				os.Exit(2)
			}
			opt.Jobs = spec
		}
		if err := replay(os.Stdout, *replayURL, opt); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}
	if *batchSpec != "" {
		fmt.Fprintln(os.Stderr, "tracegen: -batch-spec only applies to -replay mode")
		os.Exit(2)
	}
	if *burstHubs != "" {
		fmt.Fprintln(os.Stderr, "tracegen: -burst-hubs only applies to -replay mode")
		os.Exit(2)
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -out DIR or -replay URL is required")
		os.Exit(2)
	}
	if err := run(world, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run exports the world's price history and 5-minute demand trace as CSV
// files in dir.
func run(world core.Options, dir string, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sys, err := core.NewSystem(world)
	if err != nil {
		return err
	}
	mkt := sys.Market
	for _, h := range mkt.Hubs() {
		rt, err := mkt.RT(h.ID)
		if err != nil {
			return err
		}
		if err := writeCSV(filepath.Join(dir, "rt_"+h.ID+".csv"), func(f *os.File) error {
			return tracefile.WriteSeries(f, rt, "rt_price_usd_per_mwh")
		}); err != nil {
			return err
		}
		da, err := mkt.DA(h.ID)
		if err != nil {
			return err
		}
		if err := writeCSV(filepath.Join(dir, "da_"+h.ID+".csv"), func(f *os.File) error {
			return tracefile.WriteSeries(f, da, "da_price_usd_per_mwh")
		}); err != nil {
			return err
		}
	}
	if err := writeCSV(filepath.Join(dir, "da_MIDC_daily.csv"), func(f *os.File) error {
		return tracefile.WriteSeries(f, mkt.NorthwestDaily(), "da_price_usd_per_mwh")
	}); err != nil {
		return err
	}

	tr := sys.Trace
	demand := &tracefile.Demand{
		Start: tr.Start,
		Step:  timeseries.FiveMinute,
	}
	for _, sd := range tr.States {
		demand.Columns = append(demand.Columns, sd.State.Code)
	}
	demand.Rows = make([][]float64, tr.Samples)
	for i := 0; i < tr.Samples; i++ {
		row := make([]float64, len(tr.States))
		for j := range tr.States {
			row[j] = tr.States[j].Rate[i]
		}
		demand.Rows[i] = row
	}
	if err := writeCSV(filepath.Join(dir, "demand_5min.csv"), func(f *os.File) error {
		return tracefile.WriteDemand(f, demand)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "tracegen: wrote %d price files and demand_5min.csv to %s\n", 2*len(mkt.Hubs())+1, dir)
	return nil
}

func writeCSV(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
