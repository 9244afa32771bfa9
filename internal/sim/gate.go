// Burst-token gating: the fleet-coupled half of the 95/5 constraint.
//
// Per-cluster burst budgets (each billing.Constraint's) are intrinsically
// shard-local and exact. The one fleet-wide coupling is the gate that
// decides *when* burst headroom unlocks: the engine compares the step's
// total demand against the fleet's total soft-capped room. A shard
// engine summing only its own columns would answer that question with
// different bits than the joint engine, which is why soft-capped shard
// splits used to be exact only while the gate never fired. The BurstGate
// interface externalizes the decision so a broker that sees the full
// demand row can hand every shard the joint engine's exact gate bit,
// sent with the shard's share of that row.
//
// Bit-exactness contract: both parties — the engine's SelfGate and the
// coordinator's broker — MUST derive the bit with the same float
// operations in the same order: SumDemand over the full row in
// parent-fleet state order, BurstRoomTotal over min(softcap, capacity)
// in parent-fleet cluster order, compared by BurstGateOpen. These three
// helpers are that single definition.
package sim

import (
	"fmt"

	"powerroute/internal/cluster"
)

// BurstGate decides whether the fleet-wide 95/5 burst gate is open for
// one step. localDemand and localRoom are the calling engine's own sums
// (the whole-world values for a joint engine, the shard's column sums
// for a shard engine) — SelfGate uses them, a LeaseStore ignores them.
type BurstGate interface {
	GateOpen(step int, localDemand, localRoom float64) (bool, error)
}

// BurstGateOpen is the gate predicate itself: total demand within 0.1%
// of the soft-capped room (or beyond it) unlocks burst headroom.
func BurstGateOpen(totalDemand, totalRoom float64) bool {
	return totalDemand > totalRoom*0.999
}

// SumDemand totals a demand row in slice (fleet state) order — the exact
// accumulation the engine performs, exported so external brokers derive
// the same bits.
func SumDemand(row []float64) float64 {
	var total float64
	for _, dem := range row {
		total += dem
	}
	return total
}

// BurstRoomTotal totals min(softCaps[c], capacity[c]) in fleet cluster
// order — the engine's per-step totalRoom, a run constant for a fixed
// world. External brokers use it to reproduce the joint gate exactly.
func BurstRoomTotal(fleet *cluster.Fleet, softCaps []float64) (float64, error) {
	_, total, err := burstRoom(fleet, softCaps)
	return total, err
}

// burstRoom returns each cluster's soft-capped room, min(softCaps[c],
// capacity[c]), and their total summed in fleet cluster order: the one
// definition behind BurstRoomTotal and the engine's room tiers.
func burstRoom(fleet *cluster.Fleet, softCaps []float64) (room []float64, total float64, err error) {
	if len(softCaps) != len(fleet.Clusters) {
		return nil, 0, fmt.Errorf("sim: %d soft caps for %d clusters", len(softCaps), len(fleet.Clusters))
	}
	room = make([]float64, len(softCaps))
	for c, cl := range fleet.Clusters {
		capacity := float64(cl.Capacity)
		cap95 := softCaps[c]
		if cap95 > capacity {
			cap95 = capacity
		}
		room[c] = cap95
		total += cap95
	}
	return room, total, nil
}

// SelfGate is the gate of an engine that sees the whole world: it
// answers with the engine's own demand-vs-room comparison. NewEngine
// installs it whenever the scenario configures no BurstGate. Configured
// explicitly as Scenario.BurstGate, it also switches the engine into
// lease accounting: a joint engine under SelfGate is byte-comparable
// (status, checkpoints, burst_leases sections) with a merged fleet of
// lease-fed shards.
type SelfGate struct{}

// GateOpen implements BurstGate from the caller's own sums.
func (SelfGate) GateOpen(step int, localDemand, localRoom float64) (bool, error) {
	return BurstGateOpen(localDemand, localRoom), nil
}

// LeaseStore is the gate of a shard engine fed by a coordinator: a
// one-step latch holding the fleet-wide bit the coordinator derived from
// the full demand row. The shard's daemon sets it from the gate bit that
// rides each demand row, just before that row routes; the engine then
// reads it inside Step. A step whose bit was never set fails loudly:
// guessing would silently fork the shard's books from the joint run. The
// zero value holds no bit. Like the Engine it gates, a LeaseStore is not
// safe for concurrent use: its owner serializes Set with the engine's
// Step (internal/server sets it under the lock its engine steps under).
type LeaseStore struct {
	step int  // the step the latch holds a bit for, when set
	open bool // that step's bit
	set  bool // whether any bit was set
}

// Set latches the gate bit for one step, replacing any earlier bit.
func (ls *LeaseStore) Set(step int, open bool) {
	ls.step, ls.open, ls.set = step, open, true
}

// GateOpen implements BurstGate from the latched bit; the local sums are
// ignored (the coordinator derived the joint ones). Any step but the
// latched one is an error.
func (ls *LeaseStore) GateOpen(step int, localDemand, localRoom float64) (bool, error) {
	if !ls.set || step != ls.step {
		return false, fmt.Errorf("sim: no burst gate bit set for step %d (a lease-fed shard takes each row's bit with its demand)", step)
	}
	return ls.open, nil
}
