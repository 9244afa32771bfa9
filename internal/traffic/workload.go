package traffic

import (
	"fmt"
	"time"

	"powerroute/internal/geo"
)

// LongRun is the synthetic long-horizon workload of §6.3: "In order to
// simulate longer periods we derived a synthetic workload from the 24-day
// Akamai workload (US traffic only). We calculated an average hit rate for
// every hub and client state pair. We produced a different average for each
// hour of the day and each day of the week."
//
// We average demand per state (allocation to hubs is the router's job) for
// each of the 168 hours of the week; evaluating the workload at any instant
// returns the hour-of-week average.
type LongRun struct {
	States []geo.State
	// profile holds the hoursPerWeek rows back to back: row h is every
	// state's average demand at hour-of-week h, in state order, so one
	// instant's demand is one contiguous row.
	profile []float64
}

const hoursPerWeek = 7 * 24

// HourOfWeek returns the hour-of-week index (0 = Sunday 00:00 UTC). It is
// Weekday()*24 + Hour() of the instant in UTC, computed from Unix time:
// the epoch, 1970-01-01 00:00 UTC, was a Thursday, hour 4·24 of its week.
func HourOfWeek(at time.Time) int {
	sec := at.Unix()
	hours := sec / 3600
	if sec%3600 < 0 {
		hours-- // floor, for instants before the epoch
	}
	how := (hours + 4*24) % hoursPerWeek
	if how < 0 {
		how += hoursPerWeek
	}
	return int(how)
}

// LongRun derives the hour-of-week workload from the trace.
func (t *Trace) LongRun() *LongRun {
	ns := len(t.States)
	lr := &LongRun{
		States:  make([]geo.State, ns),
		profile: make([]float64, hoursPerWeek*ns),
	}
	sums := make([]float64, hoursPerWeek)
	counts := make([]int, hoursPerWeek)
	for i, sd := range t.States {
		lr.States[i] = sd.State
		clear(sums)
		clear(counts)
		for k, v := range sd.Rate {
			how := HourOfWeek(t.TimeAt(k))
			sums[how] += v
			counts[how]++
		}
		for h := range sums {
			if counts[h] > 0 {
				lr.profile[h*ns+i] = sums[h] / float64(counts[h])
			}
		}
	}
	return lr
}

// row returns every state's demand at hour-of-week how.
func (w *LongRun) row(how int) []float64 {
	ns := len(w.States)
	return w.profile[how*ns : (how+1)*ns]
}

// Rate returns state i's demand (hits/s, public clusters) at an instant.
func (w *LongRun) Rate(stateIdx int, at time.Time) (float64, error) {
	if stateIdx < 0 || stateIdx >= len(w.States) {
		return 0, fmt.Errorf("traffic: state index %d out of range", stateIdx)
	}
	return w.row(HourOfWeek(at))[stateIdx], nil
}

// Rates fills dst (len = number of states) with every state's demand at an
// instant; it allocates when dst is nil or wrongly sized.
func (w *LongRun) Rates(at time.Time, dst []float64) []float64 {
	if len(dst) != len(w.States) {
		dst = make([]float64, len(w.States))
	}
	copy(dst, w.row(HourOfWeek(at)))
	return dst
}

// Total returns the summed demand across states at an instant, in state
// order.
func (w *LongRun) Total(at time.Time) float64 {
	sum := 0.0
	for _, v := range w.row(HourOfWeek(at)) {
		sum += v
	}
	return sum
}
