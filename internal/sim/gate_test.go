package sim

import (
	"maps"
	"math"
	"slices"
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

// leaseModel is the lease window contract as a map from step to bit:
// the steps held are contiguous, from base.
type leaseModel struct {
	bits map[int]bool
	base int
}

// post applies LeaseStore.Post's documented rules and reports whether
// the post must succeed.
func (m *leaseModel) post(from int, gates []bool) bool {
	switch {
	case from < 0:
		return false
	case len(gates) == 0:
		return true
	case from > math.MaxInt-len(gates):
		return false
	case len(m.bits) == 0:
		m.base = from
	case from > m.base+len(m.bits) || from < m.base:
		return false
	}
	for i, g := range gates {
		m.bits[from+i] = g
	}
	return true
}

func (m *leaseModel) prune(below int) {
	maps.DeleteFunc(m.bits, func(step int, _ bool) bool { return step < below })
	m.base = max(m.base, below)
}

// leaseStep maps a fuzz byte to a step: mostly small ones, so windows
// meet, overlap and leave gaps, plus a few negative ones and a few
// within 55 of math.MaxInt.
func leaseStep(b byte) int {
	if b >= 200 {
		return math.MaxInt - int(b-200)
	}
	return int(b) - 8
}

// FuzzLeaseStorePost runs random Post, Prune and GateOpen sequences
// against a LeaseStore and the map model of its contract. Each op is
// three bytes: the op, a step (leaseStep), and for Post the window's
// length (low 3 bits) and bits. After every op, each modelled step reads
// its bit and the steps just outside the window read an error.
func FuzzLeaseStorePost(f *testing.F) {
	f.Add([]byte{0, 8, 0x3b, 0, 11, 0x12, 2, 10, 0, 1, 10, 0, 0, 20, 0x09})
	f.Add([]byte{0, 8, 0x1f, 1, 12, 0, 0, 9, 0x0f, 0, 30, 0x02, 1, 100, 0, 0, 50, 0x01})
	// A one-step window at math.MaxInt, then a post at step 0.
	f.Add([]byte{0, 200, 0x09, 0, 8, 0x09, 1, 100, 0, 0, 8, 0x09})
	// A window ending at math.MaxInt, then one step past it.
	f.Add([]byte{0, 201, 0x09, 0, 200, 0x09, 2, 201, 0, 1, 255, 0})

	f.Fuzz(func(t *testing.T, script []byte) {
		store := &LeaseStore{}
		model := &leaseModel{bits: map[int]bool{}}
		for len(script) >= 3 {
			op, step, arg := script[0]%3, leaseStep(script[1]), script[2]
			script = script[3:]
			switch op {
			case 0:
				gates := make([]bool, arg&7)
				for i := range gates {
					gates[i] = arg>>(3+i%5)&1 == 1
				}
				err := store.Post(step, gates)
				if want := model.post(step, gates); want != (err == nil) {
					t.Fatalf("Post(%d, %v) = %v, model accepts: %v", step, gates, err, want)
				}
			case 1:
				store.Prune(step)
				model.prune(step)
			case 2:
				got, err := store.GateOpen(step, 0, 0)
				if want, ok := model.bits[step]; ok != (err == nil) || got != want {
					t.Fatalf("GateOpen(%d) = (%v, %v), model holds (%v, %v)", step, got, err, want, ok)
				}
			}
			steps := slices.Sorted(maps.Keys(model.bits))
			for _, s := range steps {
				if got, err := store.GateOpen(s, 0, 0); err != nil || got != model.bits[s] {
					t.Fatalf("step %d reads (%v, %v), model holds %v", s, got, err, model.bits[s])
				}
			}
			if len(steps) > 0 {
				for _, s := range []int{steps[0] - 1, steps[len(steps)-1] + 1} {
					if _, err := store.GateOpen(s, 0, 0); err == nil {
						t.Fatalf("step %d outside the window %d..%d was served", s, steps[0], steps[len(steps)-1])
					}
				}
			}
		}
	})
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
