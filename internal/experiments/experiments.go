// Package experiments reproduces every table and figure in the paper's
// evaluation (Figs 1–20) plus the ablations called out in DESIGN.md. Each
// experiment is a named runner over a shared Env (one assembled world);
// runners return rendered text reports whose rows correspond to the paper's
// rows/series.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"powerroute/internal/core"
)

// Env is the shared experimental environment.
type Env struct {
	System *core.System
}

// NewEnv assembles a full-size world (39-month market, 24-day trace).
func NewEnv(seed int64) (*Env, error) {
	return NewEnvWith(core.Options{Seed: seed})
}

// NewEnvWith assembles a world from explicit options. Smoke tests and fast
// iteration shrink the horizons through MarketMonths/TraceDays.
func NewEnvWith(opts core.Options) (*Env, error) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	return &Env{System: sys}, nil
}

// sharedEnv returns a lazily built package-level environment (used by
// benchmarks so repeated runs amortize world construction).
var sharedEnv = sync.OnceValues(func() (*Env, error) {
	return NewEnv(core.DefaultSeed)
})

// SharedEnv returns the canonical environment.
func SharedEnv() (*Env, error) { return sharedEnv() }

// Result is a rendered experiment.
type Result struct {
	ID    string
	Title string
	Text  string
}

// Runner executes one experiment.
type Runner func(*Env) (*Result, error)

// Definition registers an experiment.
type Definition struct {
	ID    string
	Title string
	Run   Runner
}

// registry holds every experiment in presentation order.
var registry = []Definition{
	{"fig1", "Estimated annual electricity costs for large companies", Fig01AnnualCosts},
	{"fig2", "RTO regions and hubs", Fig02Hubs},
	{"fig3", "Daily averages of day-ahead peak prices, 2006-2009", Fig03DailyPrices},
	{"fig4", "Real-time vs day-ahead price variation (NYC)", Fig04MarketComparison},
	{"fig5", "Price volatility by averaging window (NYC, Q1 2009)", Fig05VolatilityWindows},
	{"fig6", "Real-time market statistics by hub (1% trimmed)", Fig06HubStats},
	{"fig7", "Hour-to-hour price change distributions", Fig07HourlyDeltas},
	{"fig8", "Price correlation vs distance and RTO boundary", Fig08Correlation},
	{"fig9", "Price differentials over one week", Fig09Differentials},
	{"fig10", "Price differential distributions for five hub pairs", Fig10DiffHistograms},
	{"fig11", "Monthly evolution of the PaloAlto-Virginia differential", Fig11MonthlyDiff},
	{"fig12", "Hour-of-day differential distributions", Fig12HourOfDay},
	{"fig13", "Sustained differential durations (PaloAlto-Virginia)", Fig13Durations},
	{"fig14", "CDN traffic trace: global, US, and 9-region hit rates", Fig14Traffic},
	{"fig15", "Maximum savings by energy model and 95/5 constraints", Fig15ElasticitySavings},
	{"fig16", "24-day cost vs distance threshold", Fig16CostVsDistance},
	{"fig17", "Client-server distance vs distance threshold", Fig17ClientDistance},
	{"fig18", "39-month cost vs distance threshold; dynamic vs static", Fig18LongRun},
	{"fig19", "Per-cluster cost change by distance threshold", Fig19PerCluster},
	{"fig20", "Cost increase vs price reaction delay", Fig20ReactionDelay},
	{"ablation-deadband", "Ablation: price threshold dead-band", AblationPriceThreshold},
	{"ablation-exponent", "Ablation: energy model exponent r=1 vs r=1.4", AblationExponent},
	{"ablation-hardcap", "Ablation: hard 95/5 caps vs burst budget", AblationHardCap},
	{"ablation-uniform", "Ablation: uniform 29-hub server distribution", AblationUniformFleet},
}

// All returns every experiment definition in presentation order.
func All() []Definition {
	out := make([]Definition, len(registry))
	copy(out, registry)
	return out
}

// Get finds an experiment by ID.
func Get(id string) (Definition, bool) {
	for _, d := range registry {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}

// IDs lists the registered experiment IDs.
func IDs() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.ID
	}
	return out
}

// render assembles a Result from builder content.
func render(id, title string, b *strings.Builder) *Result {
	return &Result{ID: id, Title: title, Text: strings.TrimRight(b.String(), "\n") + "\n"}
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
