package traffic

import (
	"testing"
	"time"
)

// BenchmarkLongRunRates measures one Rates call, every state's demand at
// an instant, stepping through consecutive hours as the hourly engine does.
func BenchmarkLongRunRates(b *testing.B) {
	lr := MustGenerate(Config{Seed: 1, Days: 7}).LongRun()
	at := DefaultStart
	var dst []float64
	for b.Loop() {
		dst = lr.Rates(at, dst)
		at = at.Add(time.Hour)
	}
}
