package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"powerroute/internal/cluster"
	"powerroute/internal/energy"
	"powerroute/internal/market"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
	"powerroute/internal/units"
)

// This file builds the burst-exact world: a clique-region variant of the
// synthetic fleet on which sharded replays stay bit-identical to the
// joint engine even while 95/5 soft-cap bursts genuinely fire.
//
// On the paper's derived fleet that exactness is structurally out of
// reach: states' candidate sets are strict subsets of their market
// region, so when a set saturates under tight caps the optimizer's
// outward walk (nearest cluster with room, §6.1) can hop to another
// region that happens to be nearer than the remaining in-region room —
// an assignment no shard can reproduce. The burst world removes the
// loophole by construction:
//
//   - every routing region is a complete clique: a pair of clusters
//     co-located at one market hub's spot (distinct hubs, so in-region
//     price optimization still has choices), the spots far enough apart
//     that no state reaches two of them — a candidate set is always a
//     whole region, so the walk can only leave a region the region is
//     saturated as a whole;
//   - demand is comonotone: per-state rates are a fixed spatial base
//     times one shared time curve, so every region crosses its demand
//     quantiles exactly when the fleet total crosses its own — regional
//     saturation coincides with the fleet-wide burst gate opening;
//   - capacities are sized per region at 1.3x the regional demand peak,
//     so open-gate overflow always absorbs in-region.
//
// Every process serving this world (powerrouted shards, the coordinator,
// tracegen's feed) derives it from the same seed and flags, so fleet,
// soft caps, and demand agree bit for bit across the fleet.

// ParseBurstHubs parses a burst-world topology spec: comma-separated
// regions, each a pair of market hub IDs joined by '+', e.g.
// "NP15+SP15,NYC+DOM". Each pair becomes one clique region co-located at
// the first hub's spot.
func ParseBurstHubs(spec string) ([][2]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("core: empty burst-hubs spec")
	}
	regions := strings.Split(spec, ",")
	if len(regions) < 2 {
		return nil, fmt.Errorf("core: burst-hubs spec %q has one region; sharding needs at least two", spec)
	}
	pairs := make([][2]string, len(regions))
	seen := make(map[string]bool)
	for i, region := range regions {
		ids := strings.Split(region, "+")
		if len(ids) != 2 {
			return nil, fmt.Errorf("core: burst-hubs region %q: want exactly two hub IDs joined by '+'", region)
		}
		for j, id := range ids {
			if id == "" {
				return nil, fmt.Errorf("core: burst-hubs region %q: empty hub ID", region)
			}
			if seen[id] {
				return nil, fmt.Errorf("core: burst-hubs hub %q appears twice", id)
			}
			seen[id] = true
			pairs[i][j] = id
		}
	}
	return pairs, nil
}

// ComonotoneDemand is the burst world's demand source: per-state rates
// are a frozen spatial base times one shared diurnal-plus-weekly curve,
// so every subset of states follows the same time profile. It is a pure
// function of the interval instant — every feeder and every engine
// replaying it computes identical rows.
type ComonotoneDemand struct {
	Start time.Time
	Base  []float64
}

// Rates implements sim.DemandSource.
func (d *ComonotoneDemand) Rates(at time.Time, dst []float64) []float64 {
	if len(dst) != len(d.Base) {
		dst = make([]float64, len(d.Base))
	}
	h := at.Sub(d.Start).Hours()
	g := 1 + 0.5*math.Sin(2*math.Pi*h/24) + 0.3*math.Sin(2*math.Pi*h/(24*7))
	for s, b := range d.Base {
		dst[s] = b * g
	}
	return dst
}

// BurstWorld is the assembled burst-exact world: the clique fleet, its
// comonotone demand, and per-cluster soft caps tight enough that the
// fleet burst gate genuinely fires (~3% of intervals, inside the 95/5
// budget) yet regional saturation only ever coincides with it.
type BurstWorld struct {
	Fleet    *cluster.Fleet
	Demand   *ComonotoneDemand
	SoftCaps []float64
}

// BurstWorld builds the burst-exact world for this system's market and
// workload. thresholdKm must keep the regions disjoint (the pairs are
// placed at their anchor hubs' spots — e.g. 1000 km separates NP15+SP15
// from NYC+DOM).
func (s *System) BurstWorld(pairs [][2]string, thresholdKm, priceThreshold float64) (*BurstWorld, error) {
	if len(pairs) < 2 {
		return nil, fmt.Errorf("core: burst world needs at least two regions, got %d", len(pairs))
	}
	steps := s.Market.Hours
	start := s.Market.Start
	demand := &ComonotoneDemand{Start: start, Base: s.LongRun.Rates(start, nil)}

	build := func(caps []float64) (*cluster.Fleet, error) {
		clusters := make([]cluster.Cluster, 0, 2*len(pairs))
		for i, pair := range pairs {
			anchor, err := market.HubByID(pair[0])
			if err != nil {
				return nil, fmt.Errorf("core: burst-hubs region %d: %w", i, err)
			}
			for j, id := range pair {
				if _, err := market.HubByID(id); err != nil {
					return nil, fmt.Errorf("core: burst-hubs region %d: %w", i, err)
				}
				servers := int(caps[2*i+j]/cluster.HitsPerServer) + 1
				clusters = append(clusters, cluster.Cluster{
					Code:     id,
					HubID:    id,
					Location: anchor.Location,
					Zone:     anchor.Zone,
					Servers:  servers,
					Capacity: units.HitRate(float64(servers) * cluster.HitsPerServer),
				})
			}
		}
		return cluster.NewFleet(clusters)
	}

	// Pass 1: a dummy-capacity fleet discovers the state partition, which
	// sizes the real capacities off each region's demand peak.
	dummy := make([]float64, 2*len(pairs))
	for i := range dummy {
		dummy[i] = 1e9
	}
	probe, err := build(dummy)
	if err != nil {
		return nil, err
	}
	opt, err := routing.NewPriceOptimizer(probe, thresholdKm, priceThreshold)
	if err != nil {
		return nil, fmt.Errorf("core: burst world: %w", err)
	}
	p, err := sim.PartitionByRouting(opt, probe)
	if err != nil {
		return nil, fmt.Errorf("core: burst world: %w", err)
	}
	if p.Shards() != len(pairs) {
		return nil, fmt.Errorf("core: burst-hubs fleet splits into %d market regions at threshold %g km, want %d — the anchors are within reach of each other; spread the pairs or lower the threshold",
			p.Shards(), thresholdKm, len(pairs))
	}

	// Regional demand series over the full horizon: peaks size capacity,
	// the 97th percentile pins the soft-capped room (saturating ~3% of
	// intervals, under the 5% burst budget).
	regTotals := make([][]float64, p.Shards())
	for r := range regTotals {
		regTotals[r] = make([]float64, steps)
	}
	var row []float64
	for i := 0; i < steps; i++ {
		row = demand.Rates(start.Add(time.Duration(i)*time.Hour), row)
		for r, states := range p.States {
			var sum float64
			for _, st := range states {
				sum += row[st]
			}
			regTotals[r][i] = sum
		}
	}

	caps := make([]float64, 2*len(pairs))
	for r := range p.States {
		var peak float64
		for _, v := range regTotals[r] {
			if v > peak {
				peak = v
			}
		}
		if peak <= 0 {
			return nil, fmt.Errorf("core: burst world: region %d (%s+%s) attracts no demand", r, pairs[r][0], pairs[r][1])
		}
		caps[2*r] = 1.3 * peak / 2
		caps[2*r+1] = 1.3 * peak / 2
	}
	fleet, err := build(caps)
	if err != nil {
		return nil, err
	}

	softCaps := make([]float64, len(fleet.Clusters))
	for r := range p.States {
		sorted := append([]float64(nil), regTotals[r]...)
		sort.Float64s(sorted)
		room := sorted[len(sorted)*97/100] / 0.999
		var capacity float64
		for _, c := range []int{2 * r, 2*r + 1} {
			capacity += float64(fleet.Clusters[c].Capacity)
		}
		if !(room > 0 && room < capacity) {
			return nil, fmt.Errorf("core: burst world: region %d room %g vs capacity %g cannot arm the burst gate", r, room, capacity)
		}
		for _, c := range []int{2 * r, 2*r + 1} {
			softCaps[c] = room * float64(fleet.Clusters[c].Capacity) / capacity
		}
	}

	return &BurstWorld{Fleet: fleet, Demand: demand, SoftCaps: softCaps}, nil
}

// BurstScenario assembles the joint hourly scenario over a burst world —
// the exact configuration powerrouted, powerroute-coord, and tracegen
// must share. The burst gate is left for the caller: sim.SelfGate for a
// joint or in-process-parallel engine, a sim.LeaseStore for a shard
// daemon fed by a lease broker.
func (s *System) BurstScenario(bw *BurstWorld, thresholdKm, priceThreshold float64, delay time.Duration) (sim.Scenario, error) {
	opt, err := routing.NewPriceOptimizer(bw.Fleet, thresholdKm, priceThreshold)
	if err != nil {
		return sim.Scenario{}, fmt.Errorf("core: burst scenario: %w", err)
	}
	sc, err := s.Scenario(LongRun39Months, energy.OptimisticFuture, delay)
	if err != nil {
		return sim.Scenario{}, err
	}
	sc.Fleet = bw.Fleet
	sc.Policy = opt
	sc.Demand = bw.Demand
	sc.SoftCaps = append([]float64(nil), bw.SoftCaps...)
	return sc, nil
}
