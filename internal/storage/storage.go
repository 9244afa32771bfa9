// Package storage models site-local energy storage: a battery behind each
// cluster's grid meter plus the dispatch policies that decide when to buy
// energy into it and when to serve load from it.
//
// The paper routes load toward cheap energy but leaves two levers on the
// table at every site. First, hourly prices dip and spike (§3), so a
// battery can buy low and serve the cluster during peaks — the arbitrage
// of Urgaonkar et al., "Optimal Power Cost Management Using Stored Energy
// in Data Centers". Second, commercial tariffs bill peak demand (kW) as
// well as energy (kWh), and peak shaving with stored energy directly cuts
// that component (Xu & Li, "Reducing Electricity Demand Charge for Data
// Centers with Partial Execution"). Both compose with geographic routing:
// the simulation engine threads a State per cluster through its step loop
// and meters grid draw = IT draw + charging − discharging.
//
// Sign convention: a positive dispatch action charges from the grid, a
// negative one discharges toward the load. The grid meter never runs
// backwards — discharge is capped at the cluster's IT draw (no export).
package storage

import (
	"errors"
	"fmt"
	"math"

	"powerroute/internal/stats"
	"powerroute/internal/timeseries"
)

// Battery describes one cluster's installation. The zero value is a valid
// "no battery" configuration: every operation on it is a no-op.
type Battery struct {
	// CapacityKWh is the usable energy capacity.
	CapacityKWh float64
	// MaxChargeKW bounds the grid-side charging draw.
	MaxChargeKW float64
	// MaxDischargeKW bounds the load-side discharging rate.
	MaxDischargeKW float64
	// RoundTripEfficiency is the fraction of energy bought into the battery
	// that comes back out, in (0, 1]. Losses are split evenly across the
	// charge and discharge legs (one-way efficiency √η). Zero defaults to 1.
	RoundTripEfficiency float64
	// InitialSoC is the starting state of charge as a fraction of capacity.
	InitialSoC float64
}

// Validate checks the battery parameters. Non-finite values are rejected
// explicitly: a NaN capacity would defeat every clamp in Charge/Discharge
// (NaN comparisons are all false), turning the battery into a silent
// infinite energy source.
func (b Battery) Validate() error {
	if !(b.CapacityKWh >= 0) || !(b.MaxChargeKW >= 0) || !(b.MaxDischargeKW >= 0) ||
		math.IsInf(b.CapacityKWh, 1) || math.IsInf(b.MaxChargeKW, 1) || math.IsInf(b.MaxDischargeKW, 1) {
		return fmt.Errorf("storage: capacity %v / rate limits %v,%v must be finite and non-negative",
			b.CapacityKWh, b.MaxChargeKW, b.MaxDischargeKW)
	}
	if !(b.RoundTripEfficiency >= 0 && b.RoundTripEfficiency <= 1) {
		return fmt.Errorf("storage: round-trip efficiency %v outside [0,1]", b.RoundTripEfficiency)
	}
	if !(b.InitialSoC >= 0 && b.InitialSoC <= 1) {
		return fmt.Errorf("storage: initial SoC %v outside [0,1]", b.InitialSoC)
	}
	return nil
}

// IsZero reports whether the battery stores nothing (disabled site).
func (b Battery) IsZero() bool { return b.CapacityKWh == 0 }

// onewayEfficiency returns √η with the zero-value default applied.
func (b Battery) onewayEfficiency() float64 {
	if b.RoundTripEfficiency == 0 {
		return 1
	}
	return math.Sqrt(b.RoundTripEfficiency)
}

// State is the mutable charge state of one battery over a run.
//
// ckpt:state Snapshot,RestoreSnapshot
type State struct {
	spec      Battery // ckpt:immutable configuration; RestoreSnapshot verifies against it, Snapshot never carries it
	socKWh    float64
	boughtKWh float64 // cumulative grid energy drawn for charging
	servedKWh float64 // cumulative load energy served by discharging
}

// NewState initializes a battery at its configured starting charge.
func NewState(b Battery) *State {
	return &State{spec: b, socKWh: b.InitialSoC * b.CapacityKWh}
}

// SoCKWh returns the stored energy.
func (s *State) SoCKWh() float64 { return s.socKWh }

// BoughtKWh returns the cumulative grid energy drawn to charge.
func (s *State) BoughtKWh() float64 { return s.boughtKWh }

// ServedKWh returns the cumulative load energy served from the battery.
func (s *State) ServedKWh() float64 { return s.servedKWh }

// Snapshot is the serializable dynamic state of one battery.
//
// ckpt:state Snapshot,RestoreSnapshot
type Snapshot struct {
	SoCKWh    float64 `json:"soc_kwh"`    // stored energy
	BoughtKWh float64 `json:"bought_kwh"` // cumulative grid energy drawn to charge
	ServedKWh float64 `json:"served_kwh"` // cumulative load energy served
}

// Snapshot exports the battery's charge state and cumulative totals.
func (s *State) Snapshot() Snapshot {
	return Snapshot{SoCKWh: s.socKWh, BoughtKWh: s.boughtKWh, ServedKWh: s.servedKWh}
}

// RestoreSnapshot loads a previously exported snapshot into a state built
// for the same battery spec. The charge must physically fit the spec —
// non-finite or negative values, or more stored energy than the capacity
// holds, mean the snapshot belongs to a different installation.
func (s *State) RestoreSnapshot(v Snapshot) error {
	for _, x := range []float64{v.SoCKWh, v.BoughtKWh, v.ServedKWh} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("storage: battery snapshot %+v has non-finite or negative state", v)
		}
	}
	if v.SoCKWh > s.spec.CapacityKWh {
		return fmt.Errorf("storage: snapshot SoC %v kWh exceeds capacity %v kWh", v.SoCKWh, s.spec.CapacityKWh)
	}
	s.socKWh = v.SoCKWh
	s.boughtKWh = v.BoughtKWh
	s.servedKWh = v.ServedKWh
	return nil
}

// Charge draws up to requestKW from the grid for hours, limited by the
// charge rate and the remaining headroom (after the charge-leg loss). It
// returns the grid energy actually drawn in kWh.
func (s *State) Charge(requestKW, hours float64) float64 {
	if requestKW <= 0 || hours <= 0 || s.spec.IsZero() {
		return 0
	}
	kw := math.Min(requestKW, s.spec.MaxChargeKW)
	eta := s.spec.onewayEfficiency()
	gridKWh := kw * hours
	if room := (s.spec.CapacityKWh - s.socKWh) / eta; gridKWh > room {
		gridKWh = room
	}
	if gridKWh <= 0 {
		return 0
	}
	s.socKWh += gridKWh * eta
	s.boughtKWh += gridKWh
	return gridKWh
}

// Discharge serves up to requestKW of load for hours, limited by the
// discharge rate and the stored energy (after the discharge-leg loss). It
// returns the load energy actually served in kWh.
func (s *State) Discharge(requestKW, hours float64) float64 {
	if requestKW <= 0 || hours <= 0 || s.spec.IsZero() {
		return 0
	}
	kw := math.Min(requestKW, s.spec.MaxDischargeKW)
	eta := s.spec.onewayEfficiency()
	loadKWh := kw * hours
	if avail := s.socKWh * eta; loadKWh > avail {
		loadKWh = avail
	}
	if loadKWh <= 0 {
		return 0
	}
	s.socKWh -= loadKWh / eta
	if s.socKWh < 0 { // float residue
		s.socKWh = 0
	}
	s.servedKWh += loadKWh
	return loadKWh
}

// Policy decides each interval's battery action from the cluster's current
// real-time price and IT draw. A site controller reacts locally and
// immediately, so — unlike the router — it is not subject to the
// scenario's reaction delay.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Action returns the desired battery power for cluster c at the given
	// price ($/MWh) and IT draw (kW), in kW: positive charges from the
	// grid, negative discharges toward the load. The State applies rate
	// and capacity limits; the engine additionally caps discharge at the
	// IT draw (the grid meter never runs backwards).
	Action(c int, price, itLoadKW float64, s *State) float64
}

// PriceCapper is implemented by policies that can state the price above
// which a charged battery takes over the load. The engine uses it to make
// the routing signal storage-aware: a cluster holding charge never looks
// more expensive to the router than its discharge threshold, because the
// battery pays for anything above it.
type PriceCapper interface {
	// PriceCap returns the effective price ceiling for cluster c, or +Inf
	// when the battery cannot help (empty, or no threshold).
	PriceCap(c int, s *State) float64
}

// Threshold is the greedy dispatch rule of Urgaonkar et al.'s baseline:
// charge flat out whenever the price is at or below ChargeBelow, discharge
// whenever it is at or above DischargeAbove, idle in between. The same
// thresholds apply to every cluster.
type Threshold struct {
	ChargeBelow    float64 // $/MWh
	DischargeAbove float64 // $/MWh
}

// NewThreshold validates the dead-band ordering.
func NewThreshold(chargeBelow, dischargeAbove float64) (*Threshold, error) {
	if !(dischargeAbove > chargeBelow) { // also rejects NaN thresholds
		return nil, fmt.Errorf("storage: discharge threshold %v must exceed charge threshold %v", dischargeAbove, chargeBelow)
	}
	return &Threshold{ChargeBelow: chargeBelow, DischargeAbove: dischargeAbove}, nil
}

// Name implements Policy.
func (t *Threshold) Name() string {
	return fmt.Sprintf("threshold($%.0f/$%.0f)", t.ChargeBelow, t.DischargeAbove)
}

// Action implements Policy.
func (t *Threshold) Action(_ int, price, _ float64, s *State) float64 {
	switch {
	case price <= t.ChargeBelow:
		return s.spec.MaxChargeKW
	case price >= t.DischargeAbove:
		return -s.spec.MaxDischargeKW
	default:
		return 0
	}
}

// PriceCap implements PriceCapper. The cap applies only when the battery
// can actually serve load: it holds charge and has a discharge path.
func (t *Threshold) PriceCap(_ int, s *State) float64 {
	if s.socKWh <= 0 || s.spec.MaxDischargeKW <= 0 {
		return math.Inf(1)
	}
	return t.DischargeAbove
}

// Percentile derives per-cluster charge/discharge thresholds from each
// cluster's own price history: charge below the chargeQ quantile, discharge
// above the dischargeQ quantile. Hubs with different price levels (Fig 6)
// get correspondingly different thresholds, where one global dollar
// threshold would leave cheap hubs always charging and expensive hubs
// always discharging.
type Percentile struct {
	chargeQ, dischargeQ float64
	thresholds          []Threshold // per cluster
}

// NewPercentile computes thresholds from per-cluster price series (one per
// cluster, same order as the fleet).
func NewPercentile(prices []*timeseries.Series, chargeQ, dischargeQ float64) (*Percentile, error) {
	if len(prices) == 0 {
		return nil, errors.New("storage: percentile policy needs at least one price series")
	}
	if !(chargeQ >= 0 && chargeQ < dischargeQ && dischargeQ <= 1) {
		return nil, fmt.Errorf("storage: need 0 <= chargeQ < dischargeQ <= 1, got %v/%v", chargeQ, dischargeQ)
	}
	p := &Percentile{chargeQ: chargeQ, dischargeQ: dischargeQ, thresholds: make([]Threshold, len(prices))}
	for c, s := range prices {
		qs, err := stats.Quantiles(s.Values, chargeQ, dischargeQ)
		if err != nil {
			return nil, fmt.Errorf("storage: cluster %d: %w", c, err)
		}
		if qs[1] <= qs[0] { // flat price history: no usable dead-band
			return nil, fmt.Errorf("storage: cluster %d: price quantiles %v/%v leave no dead-band", c, qs[0], qs[1])
		}
		p.thresholds[c] = Threshold{ChargeBelow: qs[0], DischargeAbove: qs[1]}
	}
	return p, nil
}

// Name implements Policy.
func (p *Percentile) Name() string {
	return fmt.Sprintf("percentile(p%.0f/p%.0f)", 100*p.chargeQ, 100*p.dischargeQ)
}

// ClusterCount implements the sizing check in Config.Validate.
func (p *Percentile) ClusterCount() int { return len(p.thresholds) }

// Action implements Policy.
func (p *Percentile) Action(c int, price, itLoadKW float64, s *State) float64 {
	return p.thresholds[c].Action(c, price, itLoadKW, s)
}

// PriceCap implements PriceCapper.
func (p *Percentile) PriceCap(c int, s *State) float64 {
	return p.thresholds[c].PriceCap(c, s)
}

// Thresholds exposes the derived per-cluster thresholds (diagnostics).
func (p *Percentile) Thresholds() []Threshold {
	return append([]Threshold(nil), p.thresholds...)
}

// PeakShaver is demand-charge dispatch: instead of chasing cheap prices it
// defends a per-cluster grid-draw ceiling. IT draw above TargetKW is
// served from the battery; the battery refills only while the total grid
// draw stays below FloorKW, so charging can never set a new monthly peak
// as long as the floor sits below the month's natural one. Price-threshold
// arbitrage raises the demand charge — it charges flat out in cheap hours,
// and the demand meter bills that draw — which is exactly the failure this
// policy exists to avoid (Xu & Li).
type PeakShaver struct {
	targetKW []float64
	floorKW  []float64
}

// NewPeakShaver builds the policy from per-cluster grid-draw targets and
// charging floors (kW, fleet order). Targets are typically a fraction of a
// no-battery run's observed PeakGridKW; floors must sit safely below any
// month's natural peak.
func NewPeakShaver(targetKW, floorKW []float64) (*PeakShaver, error) {
	if len(targetKW) == 0 || len(targetKW) != len(floorKW) {
		return nil, fmt.Errorf("storage: %d targets for %d floors", len(targetKW), len(floorKW))
	}
	for c := range targetKW {
		if !(floorKW[c] >= 0 && floorKW[c] < targetKW[c]) {
			return nil, fmt.Errorf("storage: cluster %d: need 0 <= floor %v < target %v", c, floorKW[c], targetKW[c])
		}
	}
	return &PeakShaver{
		targetKW: append([]float64(nil), targetKW...),
		floorKW:  append([]float64(nil), floorKW...),
	}, nil
}

// Name implements Policy.
func (p *PeakShaver) Name() string { return "peak-shaver" }

// ClusterCount implements the sizing check in Config.Validate.
func (p *PeakShaver) ClusterCount() int { return len(p.targetKW) }

// Action implements Policy.
func (p *PeakShaver) Action(c int, _ float64, itLoadKW float64, s *State) float64 {
	if itLoadKW > p.targetKW[c] {
		return -(itLoadKW - p.targetKW[c])
	}
	if headroom := p.floorKW[c] - itLoadKW; headroom > 0 {
		return headroom
	}
	return 0
}

// Config attaches batteries and a dispatch policy to a scenario.
type Config struct {
	// Batteries holds one installation per cluster (fleet order).
	Batteries []Battery
	// Policy dispatches every battery each interval.
	Policy Policy
	// RoutingAware, when true and Policy implements PriceCapper, caps each
	// cluster's decision price at the policy's discharge threshold while
	// its battery holds charge, so the router keeps sending load to sites
	// that can ride out a price spike on stored energy.
	RoutingAware bool
}

// Validate checks the configuration against a fleet of n clusters,
// including the dispatch policy's own per-cluster dimension when it has
// one (a Percentile or PeakShaver built for a different fleet would panic
// mid-simulation instead).
func (c *Config) Validate(n int) error {
	if len(c.Batteries) != n {
		return fmt.Errorf("storage: %d batteries for %d clusters", len(c.Batteries), n)
	}
	if c.Policy == nil {
		return errors.New("storage: config missing dispatch policy")
	}
	if p, ok := c.Policy.(interface{ ClusterCount() int }); ok && p.ClusterCount() != n {
		return fmt.Errorf("storage: policy %s sized for %d clusters, fleet has %d", c.Policy.Name(), p.ClusterCount(), n)
	}
	for i, b := range c.Batteries {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("storage: battery %d: %w", i, err)
		}
	}
	return nil
}

// Uniform builds a config installing the same battery at every one of n
// clusters.
func Uniform(b Battery, n int, p Policy) *Config {
	bs := make([]Battery, n)
	for i := range bs {
		bs[i] = b
	}
	return &Config{Batteries: bs, Policy: p}
}
