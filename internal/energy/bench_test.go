package energy

import (
	"math/rand"
	"testing"
)

// BenchmarkPowerCurve measures one Evaluator.Energy call over a seeded
// utilization sequence in the mix the 39-month hourly engine feeds the
// curve: 34% idle clusters (u = 0), 9.5% saturated ones (u = 1) and the
// rest strictly between.
func BenchmarkPowerCurve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	us := make([]float64, 1<<12)
	for i := range us {
		switch p := rng.Float64(); {
		case p < 0.34:
			us[i] = 0
		case p < 0.435:
			us[i] = 1
		default:
			us[i] = rng.Float64()
		}
	}
	ev := OptimisticFuture.Evaluator(1000)
	i := 0
	for b.Loop() {
		ev.Energy(us[i&(len(us)-1)], 1)
		i++
	}
}
