// Command powerroute regenerates the paper's tables and figures from the
// synthetic world.
//
// Usage:
//
//	powerroute [-seed N] [-parallel N] list
//	powerroute [-seed N] [-parallel N] <experiment-id> [<experiment-id>...]
//	powerroute [-seed N] [-parallel N] all
//
// Experiment IDs follow the paper's figure numbers (fig1 … fig20) plus the
// ablations documented in DESIGN.md and the extension experiments
// (ext-carbon, ext-demand, ext-joint, ext-storage, ext-peakshave — the
// last two add site batteries and demand-charge tariffs on top of the
// routing results). Experiment dispatch and each experiment's internal
// parameter sweep independently bound their worker count by -parallel
// (default: the number of CPUs); output is rendered in registry order and
// is byte-identical to a serial run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main path: it parses argv, assembles the world, and
// streams the selected experiments to stdout. It returns the process exit
// code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powerroute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var world core.Options
	world.Register(fs)
	timing := fs.Bool("time", false, "print per-experiment wall time")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiments and sweeps (1 = serial)")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	if len(args) == 0 {
		usage(stderr)
		return 2
	}

	if args[0] == "list" {
		for _, d := range experiments.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", d.ID, d.Title)
		}
		return 0
	}

	var ids []string
	if args[0] == "all" {
		ids = experiments.IDs()
	} else {
		ids = args
	}
	defs := make([]experiments.Definition, 0, len(ids))
	for _, id := range ids {
		def, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintln(stderr, "powerroute:", fmt.Errorf("unknown experiment %q (try 'powerroute list')", id))
			return 1
		}
		defs = append(defs, def)
	}
	experiments.SetParallelism(*parallel)
	env, err := experiments.NewEnvWith(world)
	if err != nil {
		fmt.Fprintln(stderr, "powerroute:", err)
		return 1
	}
	err = experiments.RunStream(env, defs, *parallel, func(res *experiments.Result, took time.Duration) error {
		fmt.Fprintf(stdout, "=== %s: %s ===\n", res.ID, res.Title)
		fmt.Fprintln(stdout, res.Text)
		if *timing {
			fmt.Fprintf(stdout, "(%s took %v)\n\n", res.ID, took.Round(time.Millisecond))
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "powerroute:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `powerroute — reproduce "Cutting the Electric Bill for Internet-Scale Systems"

usage:
  powerroute [-seed N] list                    list experiments
  powerroute [-seed N] <id> [<id>...]          run specific experiments
  powerroute [-seed N] all                     run everything
  powerroute ext-storage ext-peakshave         battery & demand-charge extensions
  powerroute [-seed N] -time <id>              report wall time too
  powerroute -parallel N <id>                  bound the worker pool (1 = serial)
  powerroute -months M -days D <id>            shrink the world (fast iteration)
`)
}
