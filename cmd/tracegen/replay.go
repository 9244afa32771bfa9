package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
	"powerroute/internal/timeseries"
)

// replayOptions configures one replay run against a powerrouted daemon.
type replayOptions struct {
	World        core.Options // -seed, -months, -days: match the daemon's
	Batch, Loops int
	Speedup      float64

	// KillAfter, when positive, stops the replay after routing that many
	// steps: the load-generator half of a crash-recovery drill (replay
	// part of the horizon, kill the daemon, restart it with -restore).
	KillAfter int
	// Resume picks up a partially replayed horizon: the replay asks the
	// daemon which step it expects next and starts there, first re-posting
	// enough price history to cover the reaction-delay lookback, so a
	// resumed run's decision prices are bit-identical to an uninterrupted
	// one's. Use it against a daemon restarted with -restore (or restored
	// via PUT /v1/checkpoint), whose price feed starts empty.
	Resume bool

	// BurstHubs switches the replay from the paper's derived world to the
	// burst-exact clique world (core.BurstWorld) the daemons were started
	// with via the matching -burst-hubs flag: comonotone demand rows
	// instead of the long-run trace. A sharded fleet's gate bits are the
	// coordinator's business; the replay only posts demand.
	BurstHubs string
	// ThresholdKm is the routing proximity threshold the daemons run with;
	// the burst world's geometry (and so its soft caps) depends on it.
	ThresholdKm float64

	// Jobs, when set, folds a deterministic deferrable-job load into the
	// demand replay (the -batch-spec flag): at every absolute step that is
	// a multiple of Every, each cluster the target serves receives one job
	// of KWh energy due Slack steps later with partial-execution floor
	// Floor. Jobs name clusters by their index in the target's /v1/world,
	// which for a coordinator is the joint fleet's order. Keying to
	// absolute steps makes the load a pure function of the step number,
	// so kill/resume drills regenerate it bit-identically.
	Jobs *jobSpec
}

// jobSpec is the parsed -batch-spec replay flag.
type jobSpec struct {
	Every int
	KWh   float64
	Slack int
	Floor float64
}

// parseJobSpec parses every=N,kwh=E,slack=S,floor=F (all four required).
func parseJobSpec(spec string) (*jobSpec, error) {
	js := &jobSpec{}
	seen := make(map[string]bool, 4)
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -batch-spec field %q (want key=value)", field)
		}
		seen[key] = true
		var err error
		switch key {
		case "every":
			js.Every, err = strconv.Atoi(val)
		case "kwh":
			js.KWh, err = strconv.ParseFloat(val, 64)
		case "slack":
			js.Slack, err = strconv.Atoi(val)
		case "floor":
			js.Floor, err = strconv.ParseFloat(val, 64)
		default:
			return nil, fmt.Errorf("unknown -batch-spec field %q (want every, kwh, slack, floor)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("-batch-spec %s: %v", key, err)
		}
	}
	for _, key := range []string{"every", "kwh", "slack", "floor"} {
		if !seen[key] {
			return nil, fmt.Errorf("-batch-spec is missing %s=", key)
		}
	}
	if js.Every < 1 {
		return nil, fmt.Errorf("-batch-spec every=%d (want >= 1)", js.Every)
	}
	if !(js.KWh > 0) || math.IsInf(js.KWh, 0) {
		return nil, fmt.Errorf("-batch-spec kwh=%g (want a positive energy)", js.KWh)
	}
	if js.Slack < 1 {
		return nil, fmt.Errorf("-batch-spec slack=%d (want >= 1)", js.Slack)
	}
	if !(js.Floor >= 0 && js.Floor <= 1) {
		return nil, fmt.Errorf("-batch-spec floor=%g (want a fraction in [0, 1])", js.Floor)
	}
	return js, nil
}

// replay regenerates the synthetic world and streams it through a running
// powerrouted daemon, or a powerroute-coord coordinator fronting a
// sharded fleet: the hourly hub price history via POST /v1/prices and
// the long-run hour-of-week demand via POST /v1/demand, in binary batches
// of opt.Batch steps, opt.Loops passes over the price horizon. Each price
// chunk is posted before the demand chunk that references it, so the
// daemon's decision lookups (reaction delay included) always resolve.
//
// With speedup 0 the replay free-runs, which makes it a throughput
// benchmark: the routed-steps-per-second figure it prints is the daemon's
// sustained decision rate including ingest parsing and HTTP overhead.
func replay(stdout io.Writer, baseURL string, opt replayOptions) error {
	if opt.Batch <= 0 {
		return fmt.Errorf("replay: non-positive batch size %d", opt.Batch)
	}
	if opt.Loops <= 0 {
		return fmt.Errorf("replay: non-positive loop count %d", opt.Loops)
	}
	if opt.KillAfter < 0 {
		return fmt.Errorf("replay: negative kill-after %d", opt.KillAfter)
	}
	// Burst mode replays the burst-exact world the daemons serve (same
	// seed, same flags → bit-identical fleet, caps, and demand).
	var pairs [][2]string
	if opt.BurstHubs != "" {
		if opt.Jobs != nil {
			return fmt.Errorf("replay: -burst-hubs and -batch-spec are not supported together")
		}
		var err error
		if pairs, err = core.ParseBurstHubs(opt.BurstHubs); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	sys, err := core.NewSystem(opt.World)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	mkt := sys.Market
	var demand sim.DemandSource = sys.LongRun
	if pairs != nil {
		bw, err := sys.BurstWorld(pairs, opt.ThresholdKm, routing.DefaultPriceThreshold)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		demand = bw.Demand
	}

	hubs := mkt.Hubs()
	hubIDs := make([]string, len(hubs))
	rts := make([]*timeseries.Series, len(hubs))
	for i, h := range hubs {
		hubIDs[i] = h.ID
		s, err := mkt.RT(h.ID)
		if err != nil {
			return err
		}
		rts[i] = s
	}
	ns := len(sys.Trace.States)
	step := timeseries.Hourly
	start := mkt.Start
	horizon := mkt.Hours
	total := horizon * opt.Loops

	client := &http.Client{Timeout: 5 * time.Minute}
	// Both daemons ignore refresh=1: a coordinator pulls and merges its
	// shards on every status read, and a daemon reads its own engine.
	statusURL := baseURL + "/v1/status?refresh=1"

	// Jobs ride demand rows addressed by the target's cluster index, so
	// the job load is generated against its cluster count.
	clusters := 0
	if opt.Jobs != nil {
		world, err := getWorld(client, baseURL)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", baseURL, err)
		}
		if len(world.Clusters) == 0 {
			return fmt.Errorf("replay: %s reports no clusters; cannot address jobs", baseURL)
		}
		clusters = len(world.Clusters)
	}

	// postChunk streams rows [off, off+n) of the (cyclic) price horizon
	// and, when withDemand is set, the matching demand rows. The price
	// chunk always lands before the demand chunk that references it.
	priceRow := make([]float64, len(hubIDs))
	rowBuf := make([]byte, 0, 8*max(len(hubIDs), ns))
	demandRow := make([]float64, ns)
	var jobRow []server.WireJob
	var jobBuf []byte
	postChunk := func(off, n int, withDemand bool) error {
		chunkStart := start.Add(time.Duration(off) * step)
		var pb bytes.Buffer
		if err := server.WriteBatchHeader(&pb, "prices", chunkStart, step, n, len(hubIDs), hubIDs); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			idx := (off + i) % horizon
			for j, rt := range rts {
				priceRow[j] = rt.Values[idx]
			}
			pb.Write(server.AppendRow(rowBuf[:0], priceRow))
		}
		if err := post(client, baseURL+"/v1/prices", server.ContentTypePricesBatch, &pb); err != nil {
			return fmt.Errorf("replay: price chunk at %v: %w", chunkStart, err)
		}
		if !withDemand {
			return nil
		}

		var db bytes.Buffer
		dh := server.BatchHeader{Kind: "demand", Start: chunkStart, Step: step, Rows: n, Cols: ns, Jobs: opt.Jobs != nil}
		if err := dh.Write(&db); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			demandRow = demand.Rates(chunkStart.Add(time.Duration(i)*step), demandRow)
			if opt.Jobs != nil {
				// The job load is a pure function of the absolute step
				// number, so resumed replays regenerate it.
				jobRow = jobRow[:0]
				if (off+i)%opt.Jobs.Every == 0 {
					for c := 0; c < clusters; c++ {
						jobRow = append(jobRow, server.WireJob{
							Cluster:       uint32(c),
							DeadlineSteps: uint32(opt.Jobs.Slack),
							EnergyKWh:     opt.Jobs.KWh,
							MinFraction:   opt.Jobs.Floor,
						})
					}
				}
				jobBuf = server.AppendJobs(jobBuf[:0], jobRow)
				db.Write(jobBuf)
			}
			db.Write(server.AppendRow(rowBuf[:0], demandRow))
		}
		if err := post(client, baseURL+"/v1/demand", server.ContentTypeDemandBatch, &db); err != nil {
			return fmt.Errorf("replay: demand chunk at %v: %w", chunkStart, err)
		}
		return nil
	}

	startOff := 0
	if opt.Resume {
		status, err := getStatus(client, statusURL)
		if err != nil {
			return err
		}
		world, err := getWorld(client, baseURL)
		if err != nil {
			return err
		}
		if got := time.Duration(world.StepSeconds * float64(time.Second)); got != step {
			return fmt.Errorf("replay: daemon steps %v, replay generates %v", got, step)
		}
		startOff = status.Steps
		if startOff > total {
			return fmt.Errorf("replay: daemon already at step %d, beyond the %d-step horizon", startOff, total)
		}
		// Re-post the price history the daemon's decision lookups will
		// reach back into: a restored daemon starts with an empty feed,
		// and without the lookback rows its first decisions would clamp to
		// the resume point instead of seeing delay-lagged prices.
		delay := time.Duration(world.ReactionDelaySeconds * float64(time.Second))
		lead := int((delay + step - 1) / step)
		if lead > startOff {
			lead = startOff
		}
		if lead > 0 {
			if err := postChunk(startOff-lead, lead, false); err != nil {
				return err
			}
		}
	}
	end := total
	if opt.KillAfter > 0 && startOff+opt.KillAfter < end {
		end = startOff + opt.KillAfter
	}

	fmt.Fprintf(stdout, "replay: steps [%d, %d) of %d (%d-pass %d-month horizon), %d hubs, %d states, batch %d\n",
		startOff, end, total, opt.Loops, mkt.Config.Months, len(hubs), ns, opt.Batch)

	routed := 0
	t0 := time.Now()
	for off := startOff; off < end; off += opt.Batch {
		n := min(opt.Batch, end-off)
		if err := postChunk(off, n, true); err != nil {
			return err
		}
		routed += n
		if opt.Speedup > 0 {
			time.Sleep(time.Duration(float64(n) * float64(step) / opt.Speedup))
		}
	}
	elapsed := time.Since(t0)

	status, err := getStatus(client, statusURL)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replay: routed %d steps in %v (%.0f steps/s)\n",
		routed, elapsed.Round(time.Millisecond), float64(routed)/elapsed.Seconds())
	fmt.Fprintf(stdout, "replay: daemon at %d steps, total cost $%.2f, energy %.1f MWh\n",
		status.Steps, status.TotalCostUSD, status.TotalEnergyMWh)
	return nil
}

// post sends one ingest body and fails on any non-2xx response, surfacing
// the daemon's JSON error message.
func post(client *http.Client, url, contentType string, body io.Reader) error {
	resp, err := client.Post(url, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// daemonStatus is the slice of /v1/status the replay summary reports.
type daemonStatus struct {
	Steps          int     `json:"steps"`
	TotalCostUSD   float64 `json:"total_cost_usd"`
	TotalEnergyMWh float64 `json:"total_energy_mwh"`
}

func getStatus(client *http.Client, url string) (*daemonStatus, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status: %s", resp.Status)
	}
	status := new(daemonStatus)
	if err := json.NewDecoder(resp.Body).Decode(status); err != nil {
		return nil, fmt.Errorf("status: decoding response: %w", err)
	}
	return status, nil
}

// daemonWorld is the slice of /v1/world the replay needs: the step
// geometry, the reaction delay whose lookback the resume path must
// re-cover, and the clusters the job load addresses.
type daemonWorld struct {
	StepSeconds          float64 `json:"step_seconds"`
	ReactionDelaySeconds float64 `json:"reaction_delay_seconds"`
	Clusters             []struct {
		Code string `json:"code"`
	} `json:"clusters"`
}

func getWorld(client *http.Client, baseURL string) (*daemonWorld, error) {
	resp, err := client.Get(baseURL + "/v1/world")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("world: %s", resp.Status)
	}
	world := new(daemonWorld)
	if err := json.NewDecoder(resp.Body).Decode(world); err != nil {
		return nil, fmt.Errorf("world: decoding response: %w", err)
	}
	return world, nil
}
