// Package billing implements 95/5 bandwidth billing (§4): "traffic is
// divided into five minute intervals and the 95th percentile is used for
// billing". The simulator uses it two ways:
//
//   - Meter records a policy's per-interval cluster rates and reports the
//     billable 95th percentile.
//   - Constraint enforces the paper's re-routing rule — "constrain our
//     energy-price rerouting so that it does not increase the 95th
//     percentile bandwidth for any location" — by capping a cluster at its
//     baseline p95 while allowing the 5% of intervals that 95/5 billing
//     ignores to burst above it.
//
// It also implements the demand-charge side of a commercial electricity
// tariff: DemandMeter tracks each calendar month's peak average power draw
// (kW), the billing determinant utilities charge per kW-month on top of
// energy. Unlike the 95/5 bandwidth bill, a demand charge has no 5% grace —
// a single spiky interval sets the whole month's charge, which is exactly
// what peak shaving with stored energy attacks.
package billing

import (
	"errors"
	"fmt"
	"math"
	"time"

	"powerroute/internal/stats"
	"powerroute/internal/timeseries"
	"powerroute/internal/units"
)

// Meter records per-interval rates for one cluster.
//
// ckpt:state Samples,RestoreSamples
type Meter struct {
	samples []float64
}

// Record appends one interval's rate.
func (m *Meter) Record(rate float64) { m.samples = append(m.samples, rate) }

// Reserve grows the meter's capacity to hold at least n samples without
// further allocation. The simulation engine reserves the scenario horizon
// up front so a 39-month run's 28k+ Records never reallocate.
func (m *Meter) Reserve(n int) {
	if n <= cap(m.samples) {
		return
	}
	s := make([]float64, len(m.samples), n)
	copy(s, m.samples)
	m.samples = s
}

// N returns the number of recorded intervals.
func (m *Meter) N() int { return len(m.samples) }

// Percentile95 returns the billable rate: the 95th percentile of recorded
// intervals. It returns an error when nothing has been recorded. The
// record keeps its order.
func (m *Meter) Percentile95() (float64, error) {
	p95, _, err := m.Percentile95Buf(nil)
	return p95, err
}

// Percentile95Buf is Percentile95 computed by selection in buf, which it
// grows as needed and returns for reuse, so one buffer serves a whole
// fleet's meters instead of one transient copy per meter. The value is
// stats.Quantile's bit for bit.
func (m *Meter) Percentile95Buf(buf []float64) (float64, []float64, error) {
	buf = append(buf[:0], m.samples...)
	p95, err := stats.SelectQuantile(buf, 0.95)
	return p95, buf, err
}

// Samples returns a copy of the recorded per-interval rates, oldest first
// (the checkpoint path; the 95th percentile needs every sample).
func (m *Meter) Samples() []float64 {
	return append([]float64(nil), m.samples...)
}

// RestoreSamples replaces the meter's record with a copy of samples (the
// restore path).
func (m *Meter) RestoreSamples(samples []float64) {
	m.samples = append(m.samples[:0:0], samples...)
}

// Peak returns the maximum recorded rate.
func (m *Meter) Peak() float64 {
	peak := 0.0
	for _, s := range m.samples {
		if s > peak {
			peak = s
		}
	}
	return peak
}

// Constraint enforces a per-cluster 95/5 cap over a known number of
// intervals: the cluster may exceed Cap during at most 5% of intervals
// (its burst budget); once the budget is spent the cap is hard.
//
// ckpt:state State,RestoreState
type Constraint struct {
	Cap          float64 // baseline billable rate (p95)
	totalBudget  int     // over-cap intervals the run may spend
	burstsUsed   int
	intervalsRun int
}

// NewConstraint builds a constraint for a run of totalIntervals intervals.
func NewConstraint(cap float64, totalIntervals int) (*Constraint, error) {
	if cap < 0 {
		return nil, errors.New("billing: negative cap")
	}
	if totalIntervals <= 0 {
		return nil, errors.New("billing: non-positive interval count")
	}
	// One fewer than 5% of intervals: with exactly 5% above the cap, an
	// interpolated 95th percentile would land marginally above it.
	return &Constraint{Cap: cap, totalBudget: max(totalIntervals/20-1, 0)}, nil
}

// Over reports whether rate exceeds the cap beyond the billing epsilon —
// the single definition of "this interval is a burst" that Commit and the
// engine's lease ledger both use.
func (c *Constraint) Over(rate float64) bool { return rate > c.Cap+1e-9 }

// CanBurst reports whether an over-cap interval is still permitted.
func (c *Constraint) CanBurst() bool { return c.burstsUsed < c.totalBudget }

// Commit records the realized rate for one interval, consuming a burst if
// the rate exceeded the cap. It returns an error if the rate exceeded the
// cap with no budget left (a router bug).
func (c *Constraint) Commit(rate float64) error {
	c.intervalsRun++
	if !c.Over(rate) {
		return nil
	}
	if !c.CanBurst() {
		return fmt.Errorf("billing: over-cap interval (%.1f > %.1f) with no burst budget", rate, c.Cap)
	}
	c.burstsUsed++
	return nil
}

// BurstsUsed returns the number of over-cap intervals consumed.
func (c *Constraint) BurstsUsed() int { return c.burstsUsed }

// IntervalsRun returns the number of committed intervals.
func (c *Constraint) IntervalsRun() int { return c.intervalsRun }

// Verify checks the 95/5 invariant after a run: over-cap intervals must not
// exceed the 5% budget, i.e. the realized p95 did not rise above the cap.
func (c *Constraint) Verify() error {
	if c.burstsUsed > c.totalBudget {
		return fmt.Errorf("billing: %d bursts used, budget %d", c.burstsUsed, c.totalBudget)
	}
	return nil
}

// ConstraintState is the serializable dynamic state of a Constraint. Cap
// and TotalBudget are configuration echoes: a restore target derives them
// from its own scenario and refuses state that disagrees, so a checkpoint
// can never smuggle a different billing contract into a run.
//
// ckpt:state State,RestoreState
type ConstraintState struct {
	Cap          float64 `json:"cap"`
	TotalBudget  int     `json:"total_budget"`
	BurstsUsed   int     `json:"bursts_used"`
	IntervalsRun int     `json:"intervals_run"`
}

// State exports the constraint's dynamic state.
func (c *Constraint) State() ConstraintState {
	return ConstraintState{
		Cap:          c.Cap,
		TotalBudget:  c.totalBudget,
		BurstsUsed:   c.burstsUsed,
		IntervalsRun: c.intervalsRun,
	}
}

// RestoreState loads a previously exported state into a freshly built
// constraint. The configuration must match exactly — same cap (bitwise),
// same total budget — and the dynamic counters must be internally
// consistent; anything else is a checkpoint from a different world.
func (c *Constraint) RestoreState(s ConstraintState) error {
	if s.Cap != c.Cap {
		return fmt.Errorf("billing: restored cap %v, constraint built with %v", s.Cap, c.Cap)
	}
	if s.TotalBudget != c.totalBudget {
		return fmt.Errorf("billing: restored burst budget %d, constraint built with %d", s.TotalBudget, c.totalBudget)
	}
	if s.BurstsUsed < 0 || s.BurstsUsed > s.TotalBudget {
		return fmt.Errorf("billing: restored bursts used %d outside budget %d", s.BurstsUsed, s.TotalBudget)
	}
	if s.IntervalsRun < s.BurstsUsed {
		return fmt.Errorf("billing: restored %d intervals with %d bursts used", s.IntervalsRun, s.BurstsUsed)
	}
	c.burstsUsed = s.BurstsUsed
	c.intervalsRun = s.IntervalsRun
	return nil
}

// LeaseLedger books one cluster's burst-token traffic under coordinated
// (fleet-gated) burst accounting. A token is granted when the fleet-wide
// gate opens for a cluster that still has budget; it is used when the
// cluster actually commits an over-cap interval that step, and expired —
// reclaimed by the broker at the step boundary — when it does not. The
// ledger is pure bookkeeping: it never blocks a burst (the Constraint's
// budget does that), it only records how the brokered budget moved, so
// granted == used + expired holds at every step boundary.
//
// ckpt:state State,RestoreState
type LeaseLedger struct {
	granted int
	used    int
	expired int
}

// Grant books one token leased to the cluster for the current step.
func (l *LeaseLedger) Grant() { l.granted++ }

// Use books the current step's token as consumed by an over-cap interval.
func (l *LeaseLedger) Use() { l.used++ }

// Expire books the current step's token as unused — reclaimed at the step
// boundary.
func (l *LeaseLedger) Expire() { l.expired++ }

// LeaseLedgerState is the serializable state of a LeaseLedger.
//
// ckpt:state State,RestoreState
type LeaseLedgerState struct {
	TokensGranted int `json:"tokens_granted"`
	TokensUsed    int `json:"tokens_used"`
	TokensExpired int `json:"tokens_expired"`
}

// State exports the ledger's counters.
func (l *LeaseLedger) State() LeaseLedgerState {
	return LeaseLedgerState{TokensGranted: l.granted, TokensUsed: l.used, TokensExpired: l.expired}
}

// RestoreState loads a previously exported ledger, enforcing the
// step-boundary invariant granted == used + expired.
func (l *LeaseLedger) RestoreState(s LeaseLedgerState) error {
	if s.TokensGranted < 0 || s.TokensUsed < 0 || s.TokensExpired < 0 {
		return fmt.Errorf("billing: negative lease ledger counters %+v", s)
	}
	if s.TokensGranted != s.TokensUsed+s.TokensExpired {
		return fmt.Errorf("billing: lease ledger granted %d != used %d + expired %d",
			s.TokensGranted, s.TokensUsed, s.TokensExpired)
	}
	l.granted, l.used, l.expired = s.TokensGranted, s.TokensUsed, s.TokensExpired
	return nil
}

// DemandMeter tracks the billing determinant of a demand-charge tariff for
// one cluster: the peak interval-average power draw (kW) within each
// calendar month (UTC). State is O(months), so 39-month hourly runs carry
// no per-interval storage.
//
// ckpt:state State,RestoreState
type DemandMeter struct {
	months []timeseries.MonthKey
	peaks  []float64 // parallel to months
}

// Record meters one interval's average draw. Intervals are expected in
// chronological order (the simulation step loop); out-of-order months fold
// into their existing bucket.
func (m *DemandMeter) Record(at time.Time, kw float64) {
	k := timeseries.MonthKey{Year: at.UTC().Year(), Month: at.UTC().Month()}
	if n := len(m.months); n > 0 && m.months[n-1] == k {
		if kw > m.peaks[n-1] {
			m.peaks[n-1] = kw
		}
		return
	}
	for i, mk := range m.months {
		if mk == k {
			if kw > m.peaks[i] {
				m.peaks[i] = kw
			}
			return
		}
	}
	m.months = append(m.months, k)
	m.peaks = append(m.peaks, kw)
}

// MonthPeak returns the peak draw recorded so far in at's calendar
// month, or 0 when the month has no samples yet. The batch scheduler's
// peak guard uses it: grid draw below this level cannot raise the
// month's demand charge.
func (m *DemandMeter) MonthPeak(at time.Time) float64 {
	k := timeseries.MonthKey{Year: at.UTC().Year(), Month: at.UTC().Month()}
	if n := len(m.months); n > 0 && m.months[n-1] == k {
		return m.peaks[n-1]
	}
	for i, mk := range m.months {
		if mk == k {
			return m.peaks[i]
		}
	}
	return 0
}

// PeakKW returns the highest draw recorded in any month (0 when empty).
func (m *DemandMeter) PeakKW() float64 {
	peak := 0.0
	for _, p := range m.peaks {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// MonthlyPeaks returns the recorded months and their peak draws, in the
// order first observed.
func (m *DemandMeter) MonthlyPeaks() ([]timeseries.MonthKey, []float64) {
	return append([]timeseries.MonthKey(nil), m.months...), append([]float64(nil), m.peaks...)
}

// DemandMeterState is the serializable state of a DemandMeter: the
// observed months and their peak draws, in first-observed order.
//
// ckpt:state State,RestoreState
type DemandMeterState struct {
	Months []timeseries.MonthKey `json:"months"`
	Peaks  []float64             `json:"peaks"`
}

// State exports the meter's per-month peaks.
func (m *DemandMeter) State() DemandMeterState {
	months, peaks := m.MonthlyPeaks()
	return DemandMeterState{Months: months, Peaks: peaks}
}

// RestoreState replaces the meter's record with a copy of s.
func (m *DemandMeter) RestoreState(s DemandMeterState) error {
	if len(s.Months) != len(s.Peaks) {
		return fmt.Errorf("billing: %d months for %d peaks", len(s.Months), len(s.Peaks))
	}
	seen := make(map[timeseries.MonthKey]bool, len(s.Months))
	for i, k := range s.Months {
		if seen[k] {
			return fmt.Errorf("billing: duplicate month %v in demand meter state", k)
		}
		seen[k] = true
		if p := s.Peaks[i]; math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("billing: month %v peak %v invalid", k, s.Peaks[i])
		}
	}
	m.months = append(m.months[:0:0], s.Months...)
	m.peaks = append(m.peaks[:0:0], s.Peaks...)
	return nil
}

// Charge bills every month's peak at the tariff's demand rate:
// Σ months peak_kW × ratePerKWMonth.
func (m *DemandMeter) Charge(ratePerKWMonth float64) units.Money {
	var total float64
	for _, p := range m.peaks {
		total += p * ratePerKWMonth
	}
	return units.Money(total)
}
