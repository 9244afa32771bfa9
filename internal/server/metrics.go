package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"powerroute/internal/cluster"
	"powerroute/internal/sim"
)

// handleMetrics renders the daemon's state in the Prometheus text
// exposition format (version 0.0.4). Everything is derived from one engine
// snapshot, so a scrape never tears across a routing step.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	text := s.metricsText(s.requests.Counts())
	w.Header().Set("Content-Type", MetricsContentType)
	_, _ = w.Write([]byte(text))
}

// metricsText renders the metrics body under the engine lock — the text
// is fully built before the lock is released, so the snapshot scratch is
// never read outside it.
func (s *Server) metricsText(requests map[string]uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MetricsText(s.fleet, s.snapshot(), s.feed.entries(), requests)
}

// MetricsContentType is the Prometheus text exposition media type.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsText renders the powerrouted metric families for an engine
// snapshot. Exported for the shard coordinator, which exposes the merged
// fleet-wide snapshot under the same metric names.
func MetricsText(fleet *cluster.Fleet, snap *sim.Snapshot, feedEntries int, requests map[string]uint64) string {
	var b strings.Builder
	metric := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	metric("powerrouted_steps_total", "counter", "Routing intervals advanced since start.")
	fmt.Fprintf(&b, "powerrouted_steps_total %d\n", snap.Steps)

	metric("powerrouted_cost_dollars_total", "counter", "Cumulative electricity bill (energy plus demand charges).")
	fmt.Fprintf(&b, "powerrouted_cost_dollars_total %g\n", float64(snap.TotalCost))

	metric("powerrouted_energy_cost_dollars_total", "counter", "Cumulative energy component of the bill.")
	fmt.Fprintf(&b, "powerrouted_energy_cost_dollars_total %g\n", float64(snap.EnergyCost))

	metric("powerrouted_demand_charge_dollars", "gauge", "Demand charge if every open month ended now.")
	fmt.Fprintf(&b, "powerrouted_demand_charge_dollars %g\n", float64(snap.DemandCharge))

	metric("powerrouted_energy_megawatt_hours_total", "counter", "Cumulative grid energy drawn.")
	fmt.Fprintf(&b, "powerrouted_energy_megawatt_hours_total %g\n", snap.TotalEnergy.MegawattHours())

	metric("powerrouted_overload_hit_seconds_total", "counter", "Demand assigned beyond physical capacity.")
	fmt.Fprintf(&b, "powerrouted_overload_hit_seconds_total %g\n", snap.OverloadHitSeconds)

	metric("powerrouted_price_feed_entries", "gauge", "Price vectors ingested and retained.")
	fmt.Fprintf(&b, "powerrouted_price_feed_entries %d\n", feedEntries)

	metric("powerrouted_cluster_rate_hits", "gauge", "Last interval's assigned rate per cluster (hits/s).")
	for c, cl := range fleet.Clusters {
		fmt.Fprintf(&b, "powerrouted_cluster_rate_hits{cluster=%q} %g\n", cl.Code, snap.ClusterRate[c])
	}

	metric("powerrouted_cluster_cost_dollars_total", "counter", "Cumulative bill per cluster.")
	for c, cl := range fleet.Clusters {
		fmt.Fprintf(&b, "powerrouted_cluster_cost_dollars_total{cluster=%q} %g\n", cl.Code, float64(snap.ClusterCost[c]))
	}

	if snap.SoCKWh != nil {
		metric("powerrouted_battery_soc_kwh", "gauge", "Battery state of charge per cluster.")
		for c, cl := range fleet.Clusters {
			fmt.Fprintf(&b, "powerrouted_battery_soc_kwh{cluster=%q} %g\n", cl.Code, snap.SoCKWh[c])
		}
	}
	if snap.PeakGridKW != nil {
		metric("powerrouted_peak_grid_kw", "gauge", "Highest metered grid draw per cluster.")
		for c, cl := range fleet.Clusters {
			fmt.Fprintf(&b, "powerrouted_peak_grid_kw{cluster=%q} %g\n", cl.Code, snap.PeakGridKW[c])
		}
	}
	if snap.TotalCarbonKg != 0 {
		metric("powerrouted_carbon_kg_total", "counter", "Cumulative metered emissions.")
		fmt.Fprintf(&b, "powerrouted_carbon_kg_total %g\n", snap.TotalCarbonKg)
	}
	if snap.BurstLeases != nil {
		var granted, used, expired int
		for _, l := range snap.BurstLeases {
			granted += l.TokensGranted
			used += l.TokensUsed
			expired += l.TokensExpired
		}
		metric("powerrouted_burst_tokens_granted_total", "counter", "Burst tokens leased while the fleet gate was open.")
		fmt.Fprintf(&b, "powerrouted_burst_tokens_granted_total %d\n", granted)
		metric("powerrouted_burst_tokens_used_total", "counter", "Burst tokens consumed by over-cap intervals.")
		fmt.Fprintf(&b, "powerrouted_burst_tokens_used_total %d\n", used)
		metric("powerrouted_burst_tokens_expired_total", "counter", "Burst tokens reclaimed unused at step boundaries.")
		fmt.Fprintf(&b, "powerrouted_burst_tokens_expired_total %d\n", expired)
	}
	if snap.BatchQueuedKWh != nil {
		metric("powerrouted_batch_queued_kwh", "gauge", "Deferrable batch energy waiting in each cluster's queue.")
		for c, cl := range fleet.Clusters {
			fmt.Fprintf(&b, "powerrouted_batch_queued_kwh{cluster=%q} %g\n", cl.Code, snap.BatchQueuedKWh[c])
		}
		metric("powerrouted_batch_served_kwh_total", "counter", "Deferrable batch energy served fleet-wide.")
		fmt.Fprintf(&b, "powerrouted_batch_served_kwh_total %g\n", snap.BatchServedKWh)
		metric("powerrouted_batch_shed_kwh_total", "counter", "Deferrable batch energy shed at deadline expiry fleet-wide.")
		fmt.Fprintf(&b, "powerrouted_batch_shed_kwh_total %g\n", snap.BatchShedKWh)
		metric("powerrouted_batch_deferred_kwh_steps_total", "counter", "Queue-residence integral of deferred batch energy (kWh times steps).")
		fmt.Fprintf(&b, "powerrouted_batch_deferred_kwh_steps_total %g\n", snap.BatchDeferredKWhSteps)
	}

	handlers := make([]string, 0, len(requests))
	for name := range requests {
		handlers = append(handlers, name)
	}
	sort.Strings(handlers)
	metric("powerrouted_http_requests_total", "counter", "HTTP requests served per handler.")
	for _, name := range handlers {
		fmt.Fprintf(&b, "powerrouted_http_requests_total{handler=%q} %d\n", name, requests[name])
	}

	return b.String()
}
