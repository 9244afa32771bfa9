package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powerroute/internal/cluster"
	"powerroute/internal/geo"
	"powerroute/internal/units"
)

// wideFleet builds a fleet of more than 64 clusters on a grid over the
// continental US, so the price optimizer routes off materialized
// per-state orders instead of its rank-space bitmasks.
func wideFleet(t *testing.T) *cluster.Fleet {
	t.Helper()
	var clusters []cluster.Cluster
	for i := 0; i < 70; i++ {
		clusters = append(clusters, cluster.Cluster{
			Code:     fmt.Sprintf("C%02d", i),
			HubID:    fmt.Sprintf("H%02d", i),
			Location: geo.Point{Lat: 30 + float64(i%7)*2.5, Lon: -122 + float64(i/7)*5},
			Servers:  100,
			Capacity: units.HitRate(3000),
		})
	}
	f, err := cluster.NewFleet(clusters)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clusters) <= 64 {
		t.Fatalf("wide fleet has %d clusters, want > 64", len(f.Clusters))
	}
	return f
}

// checkPlaced asserts the Policy.Placed contract for one Allocate: the log
// lists exactly the nonzero cells of assign, each once, in non-decreasing
// state order, and every listed cell is positive (the only values a dense
// metering scan would have fed on).
func checkPlaced(t *testing.T, what string, placed []Cell, assign [][]float64) {
	t.Helper()
	seen := make(map[Cell]bool, len(placed))
	for i, cell := range placed {
		if i > 0 && cell.State < placed[i-1].State {
			t.Fatalf("%s: placed[%d] = %v after %v: states must not decrease", what, i, cell, placed[i-1])
		}
		if seen[cell] {
			t.Fatalf("%s: cell %v placed twice", what, cell)
		}
		seen[cell] = true
		if cell.State < 0 || cell.State >= len(assign) || cell.Cluster < 0 || cell.Cluster >= len(assign[cell.State]) {
			t.Fatalf("%s: cell %v outside the %d-row matrix", what, cell, len(assign))
		}
		if v := assign[cell.State][cell.Cluster]; !(v > 0) {
			t.Fatalf("%s: placed cell %v holds %v", what, cell, v)
		}
	}
	for s, row := range assign {
		for c, v := range row {
			if v != 0 && !seen[Cell{s, c}] {
				t.Fatalf("%s: cell {%d %d} holds %v but was never placed", what, s, c, v)
			}
		}
	}
}

// TestPlacedListsExactlyTheNonzeroCells drives every policy through
// randomized demand (with zero-demand states), prices, Room and BurstRoom
// — relaxed, tight, and saturated fleets where the excess spills outward
// and finally overloads the nearest cluster — and checks the placement
// log of every Allocate against the dense matrix it describes. The
// Context is reused throughout, so every call after the first also checks
// that Allocate starts a fresh list.
func TestPlacedListsExactlyTheNonzeroCells(t *testing.T) {
	f := testFleet(t)
	wide := wideFleet(t)
	type tc struct {
		name   string
		fleet  *cluster.Fleet
		policy Policy
	}
	var cases []tc
	for _, km := range []float64{600, 1500, 2500} {
		p, err := NewPriceOptimizer(f, km, DefaultPriceThreshold)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("optimizer-%.0fkm", km), f, p})
	}
	pw, err := NewPriceOptimizer(wide, 1500, DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"optimizer-70-clusters", wide, pw})
	cases = append(cases, tc{"baseline", f, NewBaseline(f)})
	a, err := NewAllToOne(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"all-to-one", f, a})
	j, err := NewJointOptimizer(f, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"joint", f, j})

	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ns, nc := len(tc.fleet.States), len(tc.fleet.Clusters)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			prices := make([]float64, nc)
			for c := range prices {
				prices[c] = 30 + 40*rng.Float64()
			}
			ctx := mkContext(tc.fleet, 0, prices)
			assign := mkAssign(tc.fleet)
			shr, _ := tc.policy.(Sharder)
			saturated, spilled := 0, 0
			for round := 0; round < 400; round++ {
				nextPrices(rng, prices, DefaultPriceThreshold)
				copy(ctx.DecisionPrices, prices)
				total := 0.0
				for s := 0; s < ns; s++ {
					d := 0.0
					if rng.Intn(6) != 0 {
						d = 4000 * rng.Float64()
					}
					ctx.Demand[s] = d
					total += d
					clear(assign[s])
				}
				mode := rng.Intn(3)
				room := 0.0
				for c, cl := range tc.fleet.Clusters {
					r, b := float64(cl.Capacity), 0.0
					switch {
					case mode == 1 && rng.Intn(2) == 0: // tight, some with burst room
						r, b = 0.3*r*rng.Float64(), 0.5*r*rng.Float64()*float64(rng.Intn(2))
					case mode == 2: // saturated: the fleet cannot hold the demand
						r, b = 500*rng.Float64(), 200*rng.Float64()*float64(rng.Intn(2))
					}
					ctx.Room[c], ctx.BurstRoom[c] = r, b
					room += r + b
				}
				if round == 7 {
					clear(ctx.Demand) // nothing to route: the list must come back empty
					total = 0
				}
				if err := tc.policy.Allocate(ctx, assign); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("round %d (mode %d)", round, mode)
				checkPlaced(t, what, ctx.Placed, assign)
				if round == 7 && len(ctx.Placed) != 0 {
					t.Fatalf("%s: zero demand placed %v", what, ctx.Placed)
				}
				if total > room {
					saturated++
				} else if shr != nil {
					for _, cell := range ctx.Placed {
						if !slices.Contains(shr.Candidates(cell.State), cell.Cluster) {
							spilled++
							break
						}
					}
				}
			}
			if saturated == 0 {
				t.Fatal("no round saturated the fleet: the overload path went untested")
			}
			if shr != nil && spilled == 0 {
				t.Fatal("no round spilled past a state's candidates: the outward walk went untested")
			}
		})
	}
}
