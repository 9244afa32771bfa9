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

// TestFractionalCaps: the shared -softcap-pct definition is pct × capacity
// in fleet order, with non-positive fractions rejected.
func TestFractionalCaps(t *testing.T) {
	fleet := fixtures().Fleet
	caps, err := FractionalCaps(fleet, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for c, cl := range fleet.Clusters {
		if caps[c] != 0.8*float64(cl.Capacity) {
			t.Fatalf("cluster %d cap %v, want %v", c, caps[c], 0.8*float64(cl.Capacity))
		}
	}
	for _, pct := range []float64{0, -0.5} {
		if _, err := FractionalCaps(fleet, pct); err == nil {
			t.Fatalf("fraction %v accepted", pct)
		}
	}
}

// TestLeaseStoreProtocol pins the broker-to-shard lease window contract:
// contiguous posts extend or overwrite, gaps and rewinds are rejected,
// unposted steps fail loudly, and pruning bounds the window.
func TestLeaseStoreProtocol(t *testing.T) {
	store := &LeaseStore{}

	// Reading before any post fails loudly — guessing a bit would fork
	// the shard's books from the joint run.
	if _, err := store.GateOpen(0, 0, 0); err == nil || !strings.Contains(err.Error(), "no burst-token lease") {
		t.Fatalf("unposted step served: %v", err)
	}

	if err := store.Post(-1, []bool{true}); err == nil {
		t.Fatal("negative window start accepted")
	}
	if err := store.Post(5, nil); err != nil {
		t.Fatalf("empty post: %v", err)
	}

	if err := store.Post(0, []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	// A gap after the stored window could never be filled in time.
	if err := store.Post(4, []bool{true}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped window accepted: %v", err)
	}
	// Contiguous append plus overwrite of a not-yet-consumed bit.
	if err := store.Post(2, []bool{false, true}); err != nil {
		t.Fatal(err)
	}
	for step, want := range []bool{true, false, false, true} {
		got, err := store.GateOpen(step, 0, 0)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got != want {
			t.Fatalf("step %d bit %v, want %v", step, got, want)
		}
	}
	if _, err := store.GateOpen(4, 0, 0); err == nil {
		t.Fatal("step beyond the window served")
	}

	store.Prune(2)
	if _, err := store.GateOpen(1, 0, 0); err == nil {
		t.Fatal("pruned step served")
	}
	if got, err := store.GateOpen(3, 0, 0); err != nil || !got {
		t.Fatalf("surviving step after prune = (%v, %v)", got, err)
	}
	// A post rewinding before the pruned base is a stale broker.
	if err := store.Post(0, []bool{true}); err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Fatalf("pre-base window accepted: %v", err)
	}
	// Pruning everything empties the window; the next post re-bases it.
	store.Prune(100)
	if err := store.Post(42, []bool{true}); err != nil {
		t.Fatal(err)
	}
	if got, err := store.GateOpen(42, 0, 0); err != nil || !got {
		t.Fatalf("re-based window = (%v, %v)", got, err)
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
