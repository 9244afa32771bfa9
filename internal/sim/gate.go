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
// demand row can hand every shard the joint engine's exact gate bit.
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
	"math"
	"sync"

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
	if len(softCaps) != len(fleet.Clusters) {
		return 0, fmt.Errorf("sim: %d soft caps for %d clusters", len(softCaps), len(fleet.Clusters))
	}
	var total float64
	for c, cl := range fleet.Clusters {
		capacity := float64(cl.Capacity)
		cap95 := softCaps[c]
		if cap95 > capacity {
			cap95 = capacity
		}
		total += cap95
	}
	return total, nil
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

// LeaseStore replays externally brokered gate bits to a shard engine.
// The coordinator computes the joint gate bit for each step from the
// full demand row and posts it here — over HTTP via POST /v1/leases —
// before the step's demand arrives; the engine then consults the store
// inside Step. A step with no posted
// lease fails loudly: guessing would silently fork the shard's books
// from the joint run.
type LeaseStore struct {
	mu sync.Mutex
	// base is the step index of gates[0]. guarded_by: mu
	base int
	// gates holds the brokered bits for steps [base, base+len). guarded_by: mu
	gates []bool
}

// Post records gate bits for steps [from, from+len(gates)). Posting may
// extend the window or overwrite bits not yet consumed; gaps are
// rejected because a missing middle step could never be filled in time.
// A window whose end does not fit in an int is refused: the stored end
// would wrap and read as a gap to every later post.
func (ls *LeaseStore) Post(from int, gates []bool) error {
	if from < 0 {
		return fmt.Errorf("sim: lease window starts at negative step %d", from)
	}
	if len(gates) == 0 {
		return nil
	}
	if from > math.MaxInt-len(gates) {
		return fmt.Errorf("sim: lease window of %d steps from step %d ends past the largest step", len(gates), from)
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if len(ls.gates) == 0 {
		ls.base = from
		ls.gates = append(ls.gates[:0], gates...)
		return nil
	}
	end := ls.base + len(ls.gates)
	if from > end {
		return fmt.Errorf("sim: lease window starting at step %d leaves a gap after step %d", from, end-1)
	}
	if from < ls.base {
		return fmt.Errorf("sim: lease window starting at step %d precedes the stored window at %d", from, ls.base)
	}
	for i, g := range gates {
		step := from + i
		if step < end {
			ls.gates[step-ls.base] = g
		} else {
			ls.gates = append(ls.gates, g)
		}
	}
	return nil
}

// GateOpen implements BurstGate by looking up the brokered bit; the
// local sums are ignored (the broker derived the joint ones).
func (ls *LeaseStore) GateOpen(step int, localDemand, localRoom float64) (bool, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if len(ls.gates) == 0 || step < ls.base || step >= ls.base+len(ls.gates) {
		return false, fmt.Errorf("sim: no burst-token lease posted for step %d (POST /v1/leases must precede the step's demand)", step)
	}
	return ls.gates[step-ls.base], nil
}

// Prune drops stored bits for steps below the cursor, bounding the
// window to the unconsumed tail.
func (ls *LeaseStore) Prune(below int) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if below <= ls.base {
		return
	}
	if drop := below - ls.base; drop >= len(ls.gates) {
		ls.base, ls.gates = below, ls.gates[:0]
	} else {
		ls.gates = append(ls.gates[:0], ls.gates[drop:]...)
		ls.base = below
	}
}
