package experiments

import (
	"math"
	"strings"
	"testing"

	"powerroute/internal/carbon"
	"powerroute/internal/core"
)

func env(t *testing.T) *Env {
	t.Helper()
	e, err := SharedEnv()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRegistry(t *testing.T) {
	defs := All()
	if len(defs) != 32 {
		t.Fatalf("registry has %d entries, want 32 (20 figures + 4 ablations + 8 extensions)", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if d.ID == "" || d.Title == "" || d.Run == nil {
			t.Errorf("incomplete definition %+v", d)
		}
		if seen[d.ID] {
			t.Errorf("duplicate ID %q", d.ID)
		}
		seen[d.ID] = true
	}
	for i := 1; i <= 20; i++ {
		id := "fig" + itoa(i)
		if !seen[id] {
			t.Errorf("missing %s", id)
		}
	}
	if _, ok := Get("fig15"); !ok {
		t.Error("Get(fig15) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) should fail")
	}
	if len(IDs()) != len(defs) {
		t.Error("IDs() length mismatch")
	}
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

// TestMarketFigures runs the light experiments (price analysis, Figs 1-14)
// and checks key claims appear in the rendered output.
func TestMarketFigures(t *testing.T) {
	e := env(t)
	wantPhrases := map[string][]string{
		"fig1":  {"Google", "Akamai", "$"},
		"fig2":  {"ISONE", "ERCOT", "NP15", "MIDC"},
		"fig3":  {"Portland", "Palo Alto", "April"},
		"fig4":  {"RT 5-min", "Day-ahead"},
		"fig5":  {"Real-time σ", "Day-ahead σ"},
		"fig6":  {"Chicago", "New York", "Paper mean"},
		"fig7":  {"±$20", "Palo Alto"},
		"fig8":  {"406 pairs", "LA-Palo Alto"},
		"fig9":  {"NP15 minus DOM", "ERS minus DOM"},
		"fig10": {"PaloAlto - Virginia", "Boston-NYC"},
		"fig11": {"2006-01", "2009-03"},
		"fig12": {"PaloAlto minus Richmond", "Chicago minus Peoria"},
		"fig13": {"36h+", "<3h"},
		"fig14": {"Global traffic", "9-region subset"},
	}
	for id, phrases := range wantPhrases {
		def, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		res, err := def.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id || res.Text == "" {
			t.Fatalf("%s: empty result", id)
		}
		for _, p := range phrases {
			if !strings.Contains(res.Text, p) {
				t.Errorf("%s output missing %q:\n%s", id, p, res.Text)
			}
		}
	}
}

// TestSimulationFigures runs the heavyweight simulation experiments and
// verifies the paper's qualitative claims hold in the rendered output.
func TestSimulationFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures are expensive; run without -short")
	}
	e := env(t)

	t.Run("fig15", func(t *testing.T) {
		res, err := Fig15ElasticitySavings(e)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Text, "(0% idle, 1.0 PUE)") || !strings.Contains(res.Text, "(65% idle, 2.0 PUE)") {
			t.Errorf("fig15 missing model rows:\n%s", res.Text)
		}
	})
	t.Run("fig16", func(t *testing.T) {
		res, err := Fig16CostVsDistance(e)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Text, "2500") {
			t.Errorf("fig16 missing sweep end:\n%s", res.Text)
		}
	})
	t.Run("fig17", func(t *testing.T) {
		res, err := Fig17ClientDistance(e)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Text, "99th") {
			t.Errorf("fig17 missing 99th percentile column:\n%s", res.Text)
		}
	})
	t.Run("fig18", func(t *testing.T) {
		res, err := Fig18LongRun(e)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Text, "Dynamic beats static") {
			t.Errorf("fig18: dynamic did not beat static:\n%s", res.Text)
		}
		if !strings.Contains(res.Text, "unconstrained") {
			t.Errorf("fig18 missing unconstrained row:\n%s", res.Text)
		}
	})
	t.Run("fig19", func(t *testing.T) {
		res, err := Fig19PerCluster(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range []string{"CA1", "NY", "TX2"} {
			if !strings.Contains(res.Text, code) {
				t.Errorf("fig19 missing cluster %s:\n%s", code, res.Text)
			}
		}
	})
	t.Run("fig20", func(t *testing.T) {
		res, err := Fig20ReactionDelay(e)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Text, "Local minimum at 24 h") {
			t.Errorf("fig20 missing the 24h local minimum:\n%s", res.Text)
		}
		if !strings.Contains(res.Text, "Initial jump") {
			t.Errorf("fig20 missing the initial jump:\n%s", res.Text)
		}
	})
}

// TestAblations runs the four ablation studies.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are expensive; run without -short")
	}
	e := env(t)
	for _, id := range []string{"ablation-deadband", "ablation-exponent", "ablation-hardcap", "ablation-uniform"} {
		def, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		res, err := def.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Text == "" {
			t.Errorf("%s: empty output", id)
		}
	}
	// The uniform-fleet ablation must preserve the paper's decreasing
	// cost/distance curve.
	res, _ := AblationUniformFleet(e)
	if strings.Contains(res.Text, "NOTE: the curve was not monotone") {
		t.Errorf("uniform fleet lost monotonicity:\n%s", res.Text)
	}
}

// TestExtensions runs the §7/§8 extension experiments and checks their
// qualitative outcomes.
func TestExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions are expensive; run without -short")
	}
	e := env(t)
	res, err := ExtCarbonAware(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "cuts emissions below both") {
		t.Errorf("carbon-aware routing did not cut emissions:\n%s", res.Text)
	}
	res, err = ExtDemandResponse(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Total DR settlement") {
		t.Errorf("demand-response output incomplete:\n%s", res.Text)
	}
}

// TestStorageExtensions runs the energy-storage experiments and checks the
// battery actually pays off: arbitrage must beat both routers, and the
// largest battery in the tariff sweep must shave the demand charge.
func TestStorageExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("storage extensions are expensive; run without -short")
	}
	e := env(t)
	res, err := ExtStorageArbitrage(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "composes with the geographic lever") {
		t.Errorf("battery arbitrage did not save money:\n%s", res.Text)
	}
	res, err = ExtPeakShaving(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "stored energy attacks the component") {
		t.Errorf("battery sweep did not shave the demand charge:\n%s", res.Text)
	}
}

// TestBatchExtensions runs the deferrable-batch experiments and checks
// their qualitative outcomes: deferral must beat serve-on-arrival, and
// loosening deadlines must reduce the bill.
func TestBatchExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("batch extensions are expensive; run without -short")
	}
	e := env(t)
	res, err := ExtDeferrableBatch(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "turns deadline slack directly into money") {
		t.Errorf("deferral did not beat serve-on-arrival:\n%s", res.Text)
	}
	res, err = ExtBatchPareto(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "slack is the currency the scheduler spends") {
		t.Errorf("looser deadlines did not reduce the bill:\n%s", res.Text)
	}
}

// TestOptimalExtension runs the oracle experiment and checks the
// acceptance criteria: the offline bound is reported for all four online
// policies, and the Lyapunov controller strictly beats the greedy
// threshold's captured fraction.
func TestOptimalExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle extension is expensive; run without -short")
	}
	e := env(t)
	res, err := ExtOptimalDispatch(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Greedy threshold", "Per-hub percentile", "Peak shaver",
		"Lyapunov drift-plus-penalty", "Offline oracle",
	} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("missing %q in oracle report:\n%s", want, res.Text)
		}
	}
	if !strings.Contains(res.Text, "fixed thresholds sleep through") {
		t.Errorf("lyapunov did not beat the greedy threshold:\n%s", res.Text)
	}
}

// TestExtCarbonUsesWorldSeed: ext-carbon meters the carbon intensities of
// the world's own seed. On a seed-7 world its series must equal
// carbon.FleetSeries(7, …) bit for bit, and differ from the default
// seed's, so a constant seed cannot pass.
func TestExtCarbonUsesWorldSeed(t *testing.T) {
	const seed = 7
	sys, err := core.NewSystem(core.Options{Seed: seed, MarketMonths: 1, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := carbonScenario(sys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := carbon.FleetSeries(seed, sys.Fleet, sys.Market.Start, sys.Market.Hours)
	if err != nil {
		t.Fatal(err)
	}
	other, err := carbon.FleetSeries(core.DefaultSeed, sys.Fleet, sys.Market.Start, sys.Market.Hours)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Carbon) != len(want) {
		t.Fatalf("%d carbon series for %d clusters", len(sc.Carbon), len(want))
	}
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	seedMatters := false
	for c, got := range sc.Carbon {
		if !got.Start.Equal(want[c].Start) || got.Step != want[c].Step || !sameBits(got.Values, want[c].Values) {
			t.Errorf("cluster %s: ext-carbon's series is not carbon.FleetSeries(%d, …)", sys.Fleet.Clusters[c].Code, seed)
		}
		seedMatters = seedMatters || !sameBits(want[c].Values, other[c].Values)
	}
	if !seedMatters {
		t.Fatalf("seeds %d and %d draw the same carbon series; the test cannot tell them apart", seed, core.DefaultSeed)
	}
}
