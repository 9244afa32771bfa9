package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerroute/internal/routing"
	"powerroute/internal/sim"
)

func TestParseBurstHubs(t *testing.T) {
	pairs, err := ParseBurstHubs("NP15+SP15,NYC+DOM")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"NP15", "SP15"}, {"NYC", "DOM"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for spec, wantErr := range map[string]string{
		"":                    "empty",
		"NP15+SP15":           "one region",
		"NP15,NYC+DOM":        "two hub IDs",
		"NP15+SP15+ERN,NYC+X": "two hub IDs",
		"NP15+SP15,NP15+DOM":  "twice",
		"NP15+SP15,+DOM":      "empty hub ID",
		"NP15+XX,NYC+DOM":     `unknown hub "XX"`,
	} {
		if _, err := ParseBurstHubs(spec); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("spec %q: error %v, want %q", spec, err, wantErr)
		}
	}
}

// gateBits is a sim.BurstGate holding one bit per step from step 0: the
// in-test stand-in for the bits a coordinator sends with each demand row.
type gateBits []bool

func (g gateBits) GateOpen(step int, _, _ float64) (bool, error) {
	if step < 0 || step >= len(g) {
		return false, fmt.Errorf("no gate bit for step %d", step)
	}
	return g[step], nil
}

// driveBurst advances eng through `steps` intervals exactly like the
// daemon fed by tracegen would: billing prices at the interval instant,
// the decision signal ReactionDelay in the past clamped to the market
// start, demand from the scenario's source.
func driveBurst(t *testing.T, eng *sim.Engine, sc sim.Scenario, steps int) {
	t.Helper()
	prices := eng.PriceSeries()
	nc := len(sc.Fleet.Clusters)
	decision := make([]float64, nc)
	bill := make([]float64, nc)
	var demand []float64
	marketStart := prices[0].Start
	for step := 0; step < steps; step++ {
		at := eng.Next()
		demand = sc.Demand.Rates(at, demand)
		decisionAt := at.Add(-sc.ReactionDelay)
		if decisionAt.Before(marketStart) {
			decisionAt = marketStart
		}
		for c := range prices {
			v, err := prices[c].At(decisionAt)
			if err != nil {
				t.Fatal(err)
			}
			decision[c] = v
			if v, err = prices[c].At(at); err != nil {
				t.Fatal(err)
			}
			bill[c] = v
		}
		if err := eng.Step(at, sim.StepPrices{Decision: decision, Bill: bill}, demand); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestBurstWorldShardExact is the guarantee the burst-exact CI scenario
// rides on: the burst world run jointly under SelfGate equals, bit for
// bit, the same world split into lease-fed shard engines and merged —
// while the gate genuinely fires and burst tokens are spent.
func TestBurstWorldShardExact(t *testing.T) {
	for _, tc := range []struct {
		name        string
		thresholdKm float64
		spec        string
	}{
		{"2-region-1000km", 1000, "NP15+SP15,NYC+DOM"},
		{"3-region-600km", 600, "NP15+SP15,ERN+ERS,NYC+DOM"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := MustNewSystem(Options{Seed: 42})
			pairs, err := ParseBurstHubs(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			bw, err := sys.BurstWorld(pairs, tc.thresholdKm, routing.DefaultPriceThreshold)
			if err != nil {
				t.Fatal(err)
			}

			jointSc, err := sys.BurstScenario(bw, tc.thresholdKm, routing.DefaultPriceThreshold, sim.DefaultReactionDelay)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(jointSc)
			if err != nil {
				t.Fatal(err)
			}

			// The joint gate bits every broker must replay to the shards.
			room, err := sim.BurstRoomTotal(bw.Fleet, bw.SoftCaps)
			if err != nil {
				t.Fatal(err)
			}
			shardSc, err := sys.BurstScenario(bw, tc.thresholdKm, routing.DefaultPriceThreshold, sim.DefaultReactionDelay)
			if err != nil {
				t.Fatal(err)
			}
			gates := make(gateBits, shardSc.Steps)
			var row []float64
			open := 0
			for i := range gates {
				row = shardSc.Demand.Rates(shardSc.Start.Add(time.Duration(i)*shardSc.Step), row)
				gates[i] = sim.BurstGateOpen(sim.SumDemand(row), room)
				if gates[i] {
					open++
				}
			}
			if open == 0 || open > shardSc.Steps/20 {
				t.Fatalf("gate open on %d of %d steps — outside (0, budget]", open, shardSc.Steps)
			}

			p, err := sim.PartitionByRouting(shardSc.Policy.(routing.Sharder), bw.Fleet)
			if err != nil {
				t.Fatal(err)
			}
			if p.Shards() != len(pairs) {
				t.Fatalf("%d shards, want %d", p.Shards(), len(pairs))
			}
			subs, err := shardSc.Shard(p)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*sim.Checkpoint, len(subs))
			for i, sub := range subs {
				sub.BurstGate = gates
				eng, err := sim.NewEngine(sub)
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				driveBurst(t, eng, sub, sub.Steps)
				if parts[i], err = eng.Checkpoint(); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
			merged, err := sim.MergeCheckpoints(parts)
			if err != nil {
				t.Fatal(err)
			}
			var granted, used int
			for _, l := range merged.BurstLeases {
				granted += l.TokensGranted
				used += l.TokensUsed
			}
			if granted == 0 || used == 0 {
				t.Fatalf("burst gate never spent a token (granted %d, used %d)", granted, used)
			}

			restoreSc, err := sys.BurstScenario(bw, tc.thresholdKm, routing.DefaultPriceThreshold, sim.DefaultReactionDelay)
			if err != nil {
				t.Fatal(err)
			}
			joint, err := sim.Restore(restoreSc, merged)
			if err != nil {
				t.Fatal(err)
			}
			got, err := joint.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merged shard result differs from the joint run:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
