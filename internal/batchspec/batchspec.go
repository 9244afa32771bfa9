// Package batchspec parses the -batch-spec world flag into a
// deferrable-batch scheduler configuration. core.WorldFlags calls it
// against the joint world for powerrouted and powerroute-coord alike, so
// both agree on the parse: a coordinator merging shard checkpoints that
// carry batch queue sections restores them into its own joint-world
// engine, and sim.Restore requires the restoring scenario to have the
// batch class configured whenever the checkpoint does.
package batchspec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"powerroute/internal/cluster"
	"powerroute/internal/market"
	"powerroute/internal/sched"
	"powerroute/internal/stats"
)

// Parse builds the deferrable-batch scheduler configuration from a
// -batch-spec value of the form w=<watts/server>,pct=<price quantile>
// [,guard=0|1][,migrate=0|1]. The spec fixes two per-cluster vectors
// against the generated world:
//
//   - serving capacity: w watts of batch headroom per server, so a
//     cluster's MaxBatchKW scales with its size exactly like its
//     interactive capacity does;
//   - price gate: the pct-th quantile of the cluster's hub real-time
//     price history, the paper's "run deferred work when power is cheap"
//     rule anchored to the same price distribution the replay will post.
//
// guard (default 1) keeps batch serving inside the month's established
// demand peak; migrate (default 1) lets price-blocked queues drain into
// routing-reachable siblings. Jobs themselves arrive over the ingest API,
// so the returned config has an empty Jobs list.
func Parse(spec string, fleet *cluster.Fleet, mkt *market.Dataset) (*sched.Config, error) {
	cfg := &sched.Config{PeakGuard: true, Migrate: true}
	var watts, pct float64
	var haveW, havePct bool
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -batch-spec field %q (want key=value)", field)
		}
		switch key {
		case "w":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("-batch-spec w: %v", err)
			}
			watts, haveW = v, true
		case "pct":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("-batch-spec pct: %v", err)
			}
			pct, havePct = v, true
		case "guard", "migrate":
			on, err := parseBool01(key, val)
			if err != nil {
				return nil, err
			}
			if key == "guard" {
				cfg.PeakGuard = on
			} else {
				cfg.Migrate = on
			}
		default:
			return nil, fmt.Errorf("unknown -batch-spec field %q (want w, pct, guard, migrate)", key)
		}
	}
	if !haveW || !havePct {
		return nil, fmt.Errorf("-batch-spec needs both w=<watts/server> and pct=<price quantile>")
	}
	if !(watts > 0) || math.IsInf(watts, 0) {
		return nil, fmt.Errorf("-batch-spec w=%g out of range (want a positive wattage)", watts)
	}
	if !(pct > 0 && pct < 1) {
		return nil, fmt.Errorf("-batch-spec pct=%g out of range (want a quantile in (0, 1))", pct)
	}

	nc := len(fleet.Clusters)
	cfg.MaxBatchKW = make([]float64, nc)
	cfg.Thresholds = make([]float64, nc)
	for c, cl := range fleet.Clusters {
		cfg.MaxBatchKW[c] = watts * float64(cl.Servers) / 1000
		rt, err := mkt.RT(cl.HubID)
		if err != nil {
			return nil, fmt.Errorf("-batch-spec: cluster %s: %v", cl.Code, err)
		}
		q, err := stats.Quantile(rt.Values, pct)
		if err != nil {
			return nil, fmt.Errorf("-batch-spec: cluster %s price gate: %v", cl.Code, err)
		}
		cfg.Thresholds[c] = q
	}
	return cfg, nil
}

func parseBool01(key, val string) (bool, error) {
	switch val {
	case "0":
		return false, nil
	case "1":
		return true, nil
	}
	return false, fmt.Errorf("-batch-spec %s=%q (want 0 or 1)", key, val)
}
