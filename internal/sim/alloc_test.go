package sim

import "testing"

// TestStepDoesNotAllocate guards the zero-allocation contract of the step
// hot path: once an engine is past its first few intervals, Step must not
// allocate — scratch is engine-owned and sized at construction, meters are
// reserved from the scenario horizon, and the routing fast path reuses its
// order buffers even when the price signal changes every interval.
func TestStepDoesNotAllocate(t *testing.T) {
	for name, sc := range engineScenarios(t) {
		sc := sc
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngine(sc)
			if err != nil {
				t.Fatal(err)
			}
			// Reach steady state: order caches warm, battery SoC settled.
			driveSteps(t, eng, sc, 50)

			prices := eng.PriceSeries()
			nc := len(sc.Fleet.Clusters)
			decision := make([]float64, nc)
			bill := make([]float64, nc)
			var carbonVec []float64
			if sc.Carbon != nil {
				carbonVec = make([]float64, nc)
			}
			var demand []float64
			demand = sc.Demand.Rates(eng.Next(), demand)
			step := 0
			allocs := testing.AllocsPerRun(100, func() {
				at := eng.Next()
				demand = sc.Demand.Rates(at, demand)
				for c := range prices {
					v, err := prices[c].At(at)
					if err != nil {
						panic(err)
					}
					bill[c] = v
					// Perturb the decision signal every interval so the
					// optimizer's preference-order cache misses and the
					// rebuild path is measured too.
					decision[c] = v + float64(step%7)
				}
				if sc.Carbon != nil {
					for c := range sc.Carbon {
						v, err := sc.Carbon[c].At(at)
						if err != nil {
							panic(err)
						}
						carbonVec[c] = v
					}
				}
				if err := eng.Step(at, StepPrices{Decision: decision, Bill: bill, Carbon: carbonVec}, demand); err != nil {
					panic(err)
				}
				step++
			})
			if allocs != 0 {
				t.Fatalf("Engine.Step allocates %v times per interval in steady state, want 0", allocs)
			}
		})
	}
}

// TestRunAllocatesPerRun: Run allocates its hand-off buffers once, not
// per step or per chunk. Its own allocations, a Run's less those of a
// hand-driven Step loop over the same horizon (which cancels whatever the
// engine allocates as the horizon grows, such as a demand meter's monthly
// peaks), grow by fewer than sixteen objects over sixteen more chunks;
// the runtime's own count moves by a few objects from run to run.
func TestRunAllocatesPerRun(t *testing.T) {
	const extra = 16
	short, long := runChunk/2, runChunk/2+extra*runChunk
	for name, sc := range engineScenarios(t) {
		t.Run(name, func(t *testing.T) {
			own := func(steps int) float64 {
				sc.Steps = steps
				run := testing.AllocsPerRun(2, func() {
					if _, err := Run(clonePolicy(t, sc)); err != nil {
						t.Fatal(err)
					}
				})
				return run - testing.AllocsPerRun(2, func() { driveEngine(t, clonePolicy(t, sc)) })
			}
			if a, b := own(short), own(long); b-a >= extra {
				t.Fatalf("Run allocates %v objects of its own over %d steps and %v over %d", a, short, b, long)
			}
		})
	}
}
