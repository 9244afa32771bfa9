package billing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"powerroute/internal/stats"
	"powerroute/internal/timeseries"
)

func TestMeterPercentile95(t *testing.T) {
	var m Meter
	for i := 1; i <= 100; i++ {
		m.Record(float64(i))
	}
	p95, err := m.Percentile95()
	if err != nil {
		t.Fatal(err)
	}
	if p95 < 94 || p95 > 97 {
		t.Errorf("p95 = %v, want ≈ 95", p95)
	}
	if m.N() != 100 {
		t.Errorf("N = %d", m.N())
	}
	if m.Peak() != 100 {
		t.Errorf("Peak = %v", m.Peak())
	}
}

// The selection behind Percentile95 works on a copy: the meter's record
// keeps its recorded order (checkpoints serialize it), and the bill equals
// the sorted-copy quantile bit for bit, with or without a reused buffer.
func TestMeterPercentile95KeepsRecordOrder(t *testing.T) {
	var m Meter
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		m.Record(float64(rng.Intn(300)) * 1.5)
	}
	recorded := m.Samples()
	want, err := stats.Quantile(recorded, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Percentile95()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 7)
	for i := 0; i < 2; i++ {
		var p95 float64
		p95, buf, err = m.Percentile95Buf(buf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(p95) != math.Float64bits(want) {
			t.Errorf("Percentile95Buf pass %d = %v, want %v", i, p95, want)
		}
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Percentile95 = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(m.Samples(), recorded) {
		t.Error("Percentile95 reordered the meter's record")
	}
}

func TestMeterEmpty(t *testing.T) {
	var m Meter
	if _, err := m.Percentile95(); err == nil {
		t.Error("empty meter p95 should fail")
	}
	if m.Peak() != 0 {
		t.Error("empty meter peak should be 0")
	}
}

// The 95/5 billing property: the billable rate ignores the top 5% of
// intervals, so a short burst does not raise the bill (§4).
func TestMeterIgnoresShortBursts(t *testing.T) {
	var flat, bursty Meter
	for i := 0; i < 1000; i++ {
		flat.Record(100)
		if i < 40 { // 4% of intervals burst 10×
			bursty.Record(1000)
		} else {
			bursty.Record(100)
		}
	}
	pf, _ := flat.Percentile95()
	pb, _ := bursty.Percentile95()
	if pf != 100 {
		t.Errorf("flat p95 = %v", pf)
	}
	if pb != 100 {
		t.Errorf("bursty p95 = %v, want 100 (4%% burst is free under 95/5)", pb)
	}
	// A 6% burst is not free.
	var heavy Meter
	for i := 0; i < 1000; i++ {
		if i < 60 {
			heavy.Record(1000)
		} else {
			heavy.Record(100)
		}
	}
	ph, _ := heavy.Percentile95()
	if ph <= 100 {
		t.Errorf("heavy p95 = %v, want > 100 (6%% burst is billable)", ph)
	}
}

func TestConstraintBasics(t *testing.T) {
	c, err := NewConstraint(100, 100) // budget = 100/20 − 1 = 4 intervals
	if err != nil {
		t.Fatal(err)
	}
	if !c.CanBurst() {
		t.Error("fresh constraint should allow bursting")
	}
	// Four over-cap commits consume the budget.
	for i := 0; i < 4; i++ {
		if err := c.Commit(200); err != nil {
			t.Fatalf("burst %d rejected: %v", i, err)
		}
	}
	if c.CanBurst() {
		t.Error("budget should be exhausted")
	}
	if err := c.Commit(200); err == nil {
		t.Error("over-cap commit without budget should fail")
	}
	if err := c.Commit(99); err != nil {
		t.Errorf("under-cap commit rejected: %v", err)
	}
	if c.BurstsUsed() != 4 {
		t.Errorf("BurstsUsed = %d", c.BurstsUsed())
	}
	if c.IntervalsRun() != 6 {
		t.Errorf("IntervalsRun = %d", c.IntervalsRun())
	}
	if err := c.Verify(); err != nil {
		t.Errorf("Verify failed: %v", err)
	}
}

func TestConstraintCapBelowCapacity(t *testing.T) {
	c, _ := NewConstraint(100, 100)
	// A cluster whose capacity (80) sits below its cap never bursts:
	// intervals at full capacity spend no budget and always commit.
	for i := 0; i < 10; i++ {
		if c.Over(80) {
			t.Fatal("a rate below the cap counts as a burst")
		}
		if err := c.Commit(80); err != nil {
			t.Fatalf("interval %d at capacity rejected: %v", i, err)
		}
	}
	if c.BurstsUsed() != 0 || !c.CanBurst() {
		t.Errorf("BurstsUsed = %d, CanBurst = %v; want 0 and true", c.BurstsUsed(), c.CanBurst())
	}
}

func TestConstraintErrors(t *testing.T) {
	if _, err := NewConstraint(-1, 100); err == nil {
		t.Error("negative cap should fail")
	}
	if _, err := NewConstraint(10, 0); err == nil {
		t.Error("zero intervals should fail")
	}
}

// Property: for any sequence of commits within the cap, the constraint
// never errs and never consumes budget.
func TestConstraintUnderCapProperty(t *testing.T) {
	f := func(rates []float64) bool {
		c, err := NewConstraint(100, len(rates)+20)
		if err != nil {
			return false
		}
		for _, r := range rates {
			r = math.Abs(math.Mod(r, 100))
			if err := c.Commit(r); err != nil {
				return false
			}
		}
		return c.BurstsUsed() == 0 && c.Verify() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the realized p95 stays at or below the cap whenever the
// constraint accepted every interval — the paper's "does not increase the
// 95th percentile bandwidth" invariant.
func TestConstraint95InvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 400
		c, err := NewConstraint(100, n)
		if err != nil {
			return false
		}
		var m Meter
		x := uint64(seed)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			r := float64(x%150) + 1 // 1..150
			if r > c.Cap && !c.CanBurst() {
				r = c.Cap // a correct router clamps when no budget remains
			}
			if err := c.Commit(r); err != nil {
				return false
			}
			m.Record(r)
		}
		p95, err := m.Percentile95()
		if err != nil {
			return false
		}
		return p95 <= c.Cap+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDemandMeterMonthlyPeaks(t *testing.T) {
	var m DemandMeter
	jan := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 24; h++ {
		m.Record(jan.Add(time.Duration(h)*time.Hour), 100+float64(h))
	}
	feb := time.Date(2006, 2, 10, 0, 0, 0, 0, time.UTC)
	m.Record(feb, 90)
	m.Record(feb.Add(time.Hour), 250)
	m.Record(feb.Add(2*time.Hour), 80)

	months, peaks := m.MonthlyPeaks()
	if len(months) != 2 {
		t.Fatalf("recorded %d months, want 2", len(months))
	}
	if months[0].String() != "2006-01" || peaks[0] != 123 {
		t.Errorf("January peak = %v (%v), want 123", peaks[0], months[0])
	}
	if months[1].String() != "2006-02" || peaks[1] != 250 {
		t.Errorf("February peak = %v (%v), want 250", peaks[1], months[1])
	}
	if m.PeakKW() != 250 {
		t.Errorf("PeakKW = %v, want 250", m.PeakKW())
	}
	// $12/kW-month: (123 + 250) × 12.
	if got, want := m.Charge(12).Dollars(), (123.0+250)*12; math.Abs(got-want) > 1e-9 {
		t.Errorf("Charge = %v, want %v", got, want)
	}
}

func TestDemandMeterEmptyAndOutOfOrder(t *testing.T) {
	var m DemandMeter
	if m.PeakKW() != 0 || m.Charge(10) != 0 {
		t.Error("empty meter should bill zero")
	}
	// A late sample for an earlier month folds into its bucket instead of
	// opening a duplicate.
	jan := time.Date(2006, 1, 5, 0, 0, 0, 0, time.UTC)
	feb := time.Date(2006, 2, 5, 0, 0, 0, 0, time.UTC)
	m.Record(jan, 10)
	m.Record(feb, 20)
	m.Record(jan, 30)
	months, peaks := m.MonthlyPeaks()
	if len(months) != 2 {
		t.Fatalf("recorded %d months, want 2", len(months))
	}
	if peaks[0] != 30 || peaks[1] != 20 {
		t.Errorf("peaks = %v, want [30 20]", peaks)
	}
}

// TestMeterSamplesRoundTrip: Samples/RestoreSamples are a faithful,
// aliasing-free copy of the meter record.
func TestMeterSamplesRoundTrip(t *testing.T) {
	var m Meter
	for _, r := range []float64{5, 2, 9, 9, 1} {
		m.Record(r)
	}
	samples := m.Samples()
	samples[0] = 999 // must not alias the meter's internal slice
	if got := m.Samples()[0]; got != 5 {
		t.Fatalf("Samples aliases the meter: got %v", got)
	}

	var restored Meter
	restored.RestoreSamples(m.Samples())
	if restored.N() != m.N() || restored.Peak() != m.Peak() {
		t.Fatalf("restored meter N=%d peak=%v, want N=%d peak=%v", restored.N(), restored.Peak(), m.N(), m.Peak())
	}
	p1, err1 := m.Percentile95()
	p2, err2 := restored.Percentile95()
	if err1 != nil || err2 != nil || p1 != p2 {
		t.Fatalf("restored p95 %v (%v), want %v (%v)", p2, err2, p1, err1)
	}
}

// TestConstraintStateRoundTrip: State/RestoreState reproduce the budget
// position exactly and refuse mismatched configuration.
func TestConstraintStateRoundTrip(t *testing.T) {
	c, err := NewConstraint(100, 200) // budget 9
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		rate := 50.0
		if i%10 == 0 {
			rate = 150 // consume 3 bursts
		}
		if err := c.Commit(rate); err != nil {
			t.Fatal(err)
		}
	}
	st := c.State()
	if st.BurstsUsed != 3 || st.IntervalsRun != 30 {
		t.Fatalf("state %+v", st)
	}

	fresh, err := NewConstraint(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if fresh.BurstsUsed() != 3 || fresh.IntervalsRun() != 30 || !fresh.CanBurst() {
		t.Fatalf("restored constraint bursts=%d intervals=%d canBurst=%v", fresh.BurstsUsed(), fresh.IntervalsRun(), fresh.CanBurst())
	}
	// Exactly the remaining budget is honored.
	for i := 0; i < 6; i++ {
		if err := fresh.Commit(150); err != nil {
			t.Fatalf("burst %d within budget refused: %v", i, err)
		}
	}
	if err := fresh.Commit(150); err == nil {
		t.Fatal("restored constraint allowed an over-budget burst")
	}

	bad := []ConstraintState{
		{Cap: 99, TotalBudget: st.TotalBudget, BurstsUsed: 0, IntervalsRun: 0},
		{Cap: 100, TotalBudget: st.TotalBudget + 1, BurstsUsed: 0, IntervalsRun: 0},
		{Cap: 100, TotalBudget: st.TotalBudget, BurstsUsed: -1, IntervalsRun: 0},
		{Cap: 100, TotalBudget: st.TotalBudget, BurstsUsed: st.TotalBudget + 1, IntervalsRun: 99},
		{Cap: 100, TotalBudget: st.TotalBudget, BurstsUsed: 2, IntervalsRun: 1},
	}
	for i, s := range bad {
		target, _ := NewConstraint(100, 200)
		if err := target.RestoreState(s); err == nil {
			t.Errorf("case %d: invalid state %+v accepted", i, s)
		}
	}
}

// TestDemandMeterStateRoundTrip: per-month peaks survive State/RestoreState
// and invalid states are refused.
func TestDemandMeterStateRoundTrip(t *testing.T) {
	var m DemandMeter
	base := time.Date(2008, time.March, 1, 0, 0, 0, 0, time.UTC)
	m.Record(base, 100)
	m.Record(base.Add(40*24*time.Hour), 220)
	m.Record(base.Add(41*24*time.Hour), 180)

	var restored DemandMeter
	if err := restored.RestoreState(m.State()); err != nil {
		t.Fatal(err)
	}
	gm, gp := restored.MonthlyPeaks()
	wm, wp := m.MonthlyPeaks()
	if !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(gp, wp) {
		t.Fatalf("restored peaks %v/%v, want %v/%v", gm, gp, wm, wp)
	}
	if restored.Charge(10) != m.Charge(10) {
		t.Fatal("restored demand charge differs")
	}

	bad := []DemandMeterState{
		{Months: []timeseries.MonthKey{{Year: 2008, Month: 3}}, Peaks: nil},
		{Months: []timeseries.MonthKey{{Year: 2008, Month: 3}, {Year: 2008, Month: 3}}, Peaks: []float64{1, 2}},
		{Months: []timeseries.MonthKey{{Year: 2008, Month: 3}}, Peaks: []float64{math.NaN()}},
		{Months: []timeseries.MonthKey{{Year: 2008, Month: 3}}, Peaks: []float64{-4}},
	}
	for i, s := range bad {
		var target DemandMeter
		if err := target.RestoreState(s); err == nil {
			t.Errorf("case %d: invalid state %+v accepted", i, s)
		}
	}
}

// TestConstraintBurstBudget pins the classic 5% budget arithmetic:
// totalIntervals/20 − 1 bursts, hard floor at 0, and restore bounds.
func TestConstraintBurstBudget(t *testing.T) {
	if _, err := NewConstraint(1, 0); err == nil {
		t.Fatal("zero-interval constraint accepted")
	}
	tiny, err := NewConstraint(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := tiny.State().TotalBudget; got != 0 || tiny.CanBurst() {
		t.Fatalf("10-interval constraint: budget %d, CanBurst %v", got, tiny.CanBurst())
	}
	if err := tiny.Commit(5); err == nil {
		t.Fatal("over-cap interval committed with an empty budget")
	}

	c, err := NewConstraint(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.State().TotalBudget; got != 9 {
		t.Fatalf("200-interval budget %d, want 9", got)
	}
	for i := 0; i < 9; i++ {
		if !c.CanBurst() {
			t.Fatalf("CanBurst false with %d bursts used", i)
		}
		if err := c.Commit(5); err != nil {
			t.Fatal(err)
		}
	}
	if c.CanBurst() {
		t.Fatal("CanBurst true with budget spent")
	}
	if err := c.Commit(5); err == nil {
		t.Fatal("over-budget commit accepted")
	}
	if c.BurstsUsed() != 9 {
		t.Fatalf("bursts used %d, want 9", c.BurstsUsed())
	}

	st := c.State()
	for _, used := range []int{10, -1} {
		bad := st
		bad.BurstsUsed = used
		if err := c.RestoreState(bad); err == nil {
			t.Fatalf("restore of %d bursts used accepted (budget 9)", used)
		}
	}
	st.BurstsUsed = 3
	if err := c.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if c.BurstsUsed() != 3 || !c.CanBurst() {
		t.Fatalf("restored constraint: used %d, CanBurst %v", c.BurstsUsed(), c.CanBurst())
	}
}

// TestLeaseLedgerStateRoundTrip: counters survive State/RestoreState and
// the step-boundary invariant granted == used + expired is enforced.
func TestLeaseLedgerStateRoundTrip(t *testing.T) {
	var l LeaseLedger
	l.Grant()
	l.Use()
	l.Grant()
	l.Expire()
	l.Grant()
	l.Use()
	st := l.State()
	want := LeaseLedgerState{TokensGranted: 3, TokensUsed: 2, TokensExpired: 1}
	if st != want {
		t.Fatalf("ledger state %+v, want %+v", st, want)
	}

	var restored LeaseLedger
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if restored.State() != want {
		t.Fatalf("restored state %+v, want %+v", restored.State(), want)
	}

	bad := []LeaseLedgerState{
		{TokensGranted: -1, TokensUsed: 0, TokensExpired: 0},
		{TokensGranted: 2, TokensUsed: -1, TokensExpired: 3},
		{TokensGranted: 2, TokensUsed: 0, TokensExpired: -2},
		{TokensGranted: 3, TokensUsed: 1, TokensExpired: 1},
	}
	for i, s := range bad {
		var target LeaseLedger
		if err := target.RestoreState(s); err == nil {
			t.Errorf("case %d: invalid ledger state %+v accepted", i, s)
		}
	}
}
