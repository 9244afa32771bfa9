package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceAllocate is the per-state walk the optimizer's set-table fast
// path must reproduce: each state's demand fills preferenceOrder (the
// dead-band tier in distance order, then the rest by ascending price and
// distance), spills outward through the nearest clusters, and any
// remainder overloads the nearest one. It keeps no state across calls.
func referenceAllocate(p *PriceOptimizer, ctx *Context, assign [][]float64) {
	ctx.Placed = ctx.Placed[:0]
	for s, demand := range ctx.Demand {
		if demand <= 0 {
			continue
		}
		left := fill(p.preferenceOrder(s, ctx.DecisionPrices, nil), demand, ctx, s, assign[s])
		if left > 0 {
			left = fill(p.nearest[s], left, ctx, s, assign[s])
		}
		if left > 0 {
			place(ctx, assign[s], s, p.nearest[s][0], left)
		}
	}
}

// nextPrices moves prices one step along a randomly chosen path shape.
// The shapes cover what the fast path must get exactly right: small
// random walks (dead-band masks mostly unchanged from the previous
// vector), coarse quantization (exact ties, and prices landing exactly on
// pmin + threshold), a price set exactly at another's dead-band edge,
// ±Inf, −0, and an unchanged vector (the order cache hits).
func nextPrices(rng *rand.Rand, prices []float64, threshold float64) {
	nc := len(prices)
	switch k := rng.Intn(10); {
	case k < 4:
		for c := range prices {
			if math.IsInf(prices[c], 0) {
				prices[c] = 40 + 20*rng.Float64()
			}
			prices[c] += rng.NormFloat64() * 0.7
		}
	case k < 6:
		for c := range prices {
			prices[c] = 20 + threshold*float64(rng.Intn(6))
		}
	case k == 6:
		a, b := rng.Intn(nc), rng.Intn(nc)
		if !math.IsInf(prices[b], 0) {
			prices[a] = prices[b] + threshold
		}
	case k == 7:
		prices[rng.Intn(nc)] = math.Inf(2*rng.Intn(2) - 1)
	case k == 8:
		for c := range prices {
			if rng.Intn(3) == 0 {
				prices[c] = math.Copysign(0, -1)
			} else if rng.Intn(2) == 0 {
				prices[c] = 0
			}
		}
	default:
		// Unchanged vector: Allocate must route off the cached tables.
	}
}

// TestSetTableMatchesReferenceWalk drives one PriceOptimizer through
// thousands of successive price vectors and checks every allocation —
// assignments, Room and BurstRoom, bit for bit, and the placement log
// entry for entry — against the stateless
// per-state reference walk on copies of the same context. The optimizer's
// cached ranking, dead-band tables and first picks must never let a
// decision drift from what the current price vector alone implies.
func TestSetTableMatchesReferenceWalk(t *testing.T) {
	f := testFleet(t)
	ns, nc := len(f.States), len(f.Clusters)
	for _, km := range []float64{600, 1500, 2500} {
		p, err := NewPriceOptimizer(f, km, DefaultPriceThreshold)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(km)))
		prices := make([]float64, nc)
		for c := range prices {
			prices[c] = 30 + 40*rng.Float64()
		}
		got, want := mkContext(f, 0, prices), mkContext(f, 0, prices)
		gotAssign, wantAssign := mkAssign(f), mkAssign(f)
		for step := 0; step < 4000; step++ {
			nextPrices(rng, prices, DefaultPriceThreshold)
			copy(got.DecisionPrices, prices)
			copy(want.DecisionPrices, prices)
			for s := 0; s < ns; s++ {
				d := 0.0
				if rng.Intn(8) != 0 {
					d = 4000 * rng.Float64()
				}
				got.Demand[s], want.Demand[s] = d, d
				clear(gotAssign[s])
				clear(wantAssign[s])
			}
			for c, cl := range f.Clusters {
				room, burst := float64(cl.Capacity), 0.0
				switch rng.Intn(4) {
				case 0: // tight: walks past the first pick into the tail
					room = 20000 * rng.Float64()
				case 1: // tight with burst room: the second tier fills
					room, burst = 10000*rng.Float64(), 30000*rng.Float64()
				case 2:
					room = 0
				}
				got.Room[c], want.Room[c] = room, room
				got.BurstRoom[c], want.BurstRoom[c] = burst, burst
			}
			if err := p.Allocate(got, gotAssign); err != nil {
				t.Fatal(err)
			}
			referenceAllocate(p, want, wantAssign)
			for c := 0; c < nc; c++ {
				if math.Float64bits(got.Room[c]) != math.Float64bits(want.Room[c]) ||
					math.Float64bits(got.BurstRoom[c]) != math.Float64bits(want.BurstRoom[c]) {
					t.Fatalf("%v km step %d cluster %d: room %v/%v, reference %v/%v (prices %v)",
						km, step, c, got.Room[c], got.BurstRoom[c], want.Room[c], want.BurstRoom[c], prices)
				}
			}
			for s := 0; s < ns; s++ {
				for c := 0; c < nc; c++ {
					if math.Float64bits(gotAssign[s][c]) != math.Float64bits(wantAssign[s][c]) {
						t.Fatalf("%v km step %d state %d: assign %v, reference %v (prices %v)",
							km, step, s, gotAssign[s], wantAssign[s], prices)
					}
				}
			}
			if !slices.Equal(got.Placed, want.Placed) {
				t.Fatalf("%v km step %d: placed %v, reference %v (prices %v)", km, step, got.Placed, want.Placed, prices)
			}
		}
	}
}
