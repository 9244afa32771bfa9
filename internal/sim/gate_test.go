package sim

import (
	"strings"
	"testing"

	"powerroute/internal/routing"
)

// TestBurstGatePredicate pins the single bit definition every party —
// engine, SelfGate, coordinator broker, tracegen — must share: demand
// within 0.1% of the soft-capped room opens the gate.
func TestBurstGatePredicate(t *testing.T) {
	if BurstGateOpen(998.9, 1000) {
		t.Fatal("gate open below the 0.1% band")
	}
	if !BurstGateOpen(999.1, 1000) {
		t.Fatal("gate closed inside the 0.1% band")
	}
	if !BurstGateOpen(1001, 1000) {
		t.Fatal("gate closed above the room")
	}
	if sum := SumDemand([]float64{1, 2, 3.5}); sum != 6.5 {
		t.Fatalf("SumDemand = %v, want 6.5", sum)
	}

	open, err := SelfGate{}.GateOpen(7, 999.1, 1000)
	if err != nil || !open {
		t.Fatalf("SelfGate = (%v, %v), want (true, nil)", open, err)
	}
}

// TestBurstRoomTotal: per-cluster room is min(softcap, capacity), summed
// in fleet cluster order; a cap vector of the wrong length is rejected.
func TestBurstRoomTotal(t *testing.T) {
	fleet := fixtures().Fleet
	caps := make([]float64, len(fleet.Clusters))
	var want float64
	for c, cl := range fleet.Clusters {
		caps[c] = float64(cl.Capacity) * 0.5
		want += caps[c]
	}
	// One cap above capacity must clamp to capacity.
	caps[0] = float64(fleet.Clusters[0].Capacity) * 2
	want += float64(fleet.Clusters[0].Capacity) - float64(fleet.Clusters[0].Capacity)*0.5
	got, err := BurstRoomTotal(fleet, caps)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("room total %v, want %v", got, want)
	}
	if _, err := BurstRoomTotal(fleet, caps[:1]); err == nil {
		t.Fatal("short cap vector accepted")
	}
}

// TestLeaseStoreProtocol pins the shard-side latch: a step with no bit
// set fails loudly, a set bit answers for its own step only, and the
// next Set replaces it.
func TestLeaseStoreProtocol(t *testing.T) {
	store := &LeaseStore{}

	// Reading before any Set fails loudly — guessing a bit would fork
	// the shard's books from the joint run. Step 0 is no exception.
	if _, err := store.GateOpen(0, 0, 0); err == nil || !strings.Contains(err.Error(), "no burst gate bit") {
		t.Fatalf("unset step served: %v", err)
	}

	store.Set(3, true)
	if got, err := store.GateOpen(3, 0, 0); err != nil || !got {
		t.Fatalf("step 3 after Set(3, true) = (%v, %v)", got, err)
	}
	for _, step := range []int{2, 4} {
		if _, err := store.GateOpen(step, 0, 0); err == nil {
			t.Fatalf("step %d served from the bit set for step 3", step)
		}
	}
	store.Set(4, false)
	if got, err := store.GateOpen(4, 0, 0); err != nil || got {
		t.Fatalf("step 4 after Set(4, false) = (%v, %v)", got, err)
	}
	if _, err := store.GateOpen(3, 0, 0); err == nil {
		t.Fatal("step 3 still served after Set(4, ...)")
	}
}

// TestScenarioRejectsGateWithoutSoftCaps: a burst gate is meaningless
// without soft caps to gate — configuration error, not a silent no-op.
func TestScenarioRejectsGateWithoutSoftCaps(t *testing.T) {
	sc := shortScenario()
	sc.Policy = routing.NewBaseline(sc.Fleet)
	sc.BurstGate = SelfGate{}
	if _, err := NewEngine(sc); err == nil || !strings.Contains(err.Error(), "burst gate") {
		t.Fatalf("gate without soft caps accepted: %v", err)
	}
}
