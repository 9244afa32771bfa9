package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// overlapScenarios are the scenarios Run bills on its helper goroutine
// (and the routing-aware ones it steps inline): every engineScenarios
// entry, plus the storage scenarios with routing awareness off, whose
// batteries the billing goroutine dispatches, and the every-section
// world both ways. Its price optimizer makes it the one routing-aware
// storage scenario here whose routing reads the price caps (the others
// route with the price-blind baseline). horizon sets each one's step
// count.
func overlapScenarios(t *testing.T, horizon int) map[string]Scenario {
	t.Helper()
	scs := engineScenarios(t)
	for _, name := range []string{"storage", "lyapunov"} {
		scs[name+"-unaware"] = routingUnaware(scs[name])
	}
	scs["every-section"] = everySectionScenario(t, 600, horizon)
	scs["every-section-unaware"] = routingUnaware(scs["every-section"])
	for name, sc := range scs {
		sc.Steps = horizon
		scs[name] = sc
	}
	return scs
}

// routingUnaware returns sc with its storage config copied and routing
// awareness switched off.
func routingUnaware(sc Scenario) Scenario {
	st := *sc.Storage
	st.RoutingAware = false
	sc.Storage = &st
	return sc
}

// TestConcurrentRunMatchesStep: Run, which bills each chunk of routed
// steps on a helper goroutine while later steps route, must give the
// Result of a hand-driven Step loop bit for bit, at horizons shorter than
// one chunk, an exact multiple of a chunk past the point where chunks are
// reused, and one step past such a multiple.
func TestConcurrentRunMatchesStep(t *testing.T) {
	for _, horizon := range []int{runChunk / 2, (runChunks + 1) * runChunk, (runChunks+1)*runChunk + 1} {
		for name, sc := range overlapScenarios(t, horizon) {
			t.Run(fmt.Sprintf("%s/%d", name, horizon), func(t *testing.T) {
				batch, err := Run(clonePolicy(t, sc))
				if err != nil {
					t.Fatal(err)
				}
				stepped := driveEngine(t, clonePolicy(t, sc))
				if !reflect.DeepEqual(batch, stepped) {
					t.Fatalf("Run diverges from a Step loop:\nrun:  %+v\nstep: %+v", batch, stepped)
				}
			})
		}
	}
}

// nanDemand passes its source's demand through, except at step bad,
// where state 0 demands NaN hits/s.
type nanDemand struct {
	src   DemandSource
	start time.Time
	step  time.Duration
	bad   int
}

func (d *nanDemand) Rates(at time.Time, dst []float64) []float64 {
	dst = d.src.Rates(at, dst)
	if at.Equal(d.start.Add(time.Duration(d.bad) * d.step)) {
		dst[0] = math.NaN()
	}
	return dst
}

// TestRunStopsOnError: a step that fails inside the second chunk stops
// Run with the error the inline Step loop returns, and the billing
// goroutine is gone when Run returns.
func TestRunStopsOnError(t *testing.T) {
	sc := engineScenarios(t)["batch"]
	sc.Demand = &nanDemand{src: sc.Demand, start: sc.Start, step: sc.Step, bad: runChunk + runChunk/2}

	eng, err := NewEngine(clonePolicy(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	in := newRunInputs(&sc, eng.PriceSeries())
	want := runInline(eng, &in)
	if want == nil || !strings.Contains(want.Error(), "NaN") {
		t.Fatalf("inline loop error %v, want the NaN demand refused", want)
	}

	before := runtime.NumGoroutine()
	res, err := Run(clonePolicy(t, sc))
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Run = %v, %v; want error %q", res, err, want)
	}
	// The helper closes its done channel as its last act; give it the
	// moment it needs to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}
