// Lyapunov-drift online dispatch, after Urgaonkar et al., "Optimal Power
// Cost Management Using Stored Energy in Data Centers" (arXiv:1103.3099).
//
// The three shipped policies are myopic: fixed dollar thresholds
// (Threshold), fixed per-cluster quantile thresholds (Percentile), or a
// grid-draw ceiling (PeakShaver). The Lyapunov controller instead derives
// its threshold from the battery's own state of charge each interval: it
// maintains a virtual queue X = SoC − θ and minimizes the drift-plus-
// penalty expression V·P(t)·(charge − discharge) + X·(charge − discharge),
// which yields control around a SoC-dependent indifference price
// T(SoC) = (θ − SoC)/V. An empty battery is willing to buy at high prices;
// a full one discharges at low ones. No price forecast is needed — only
// the current spot price — yet the time-average cost provably approaches
// the offline optimum within O(1/V) as V grows toward its feasibility
// bound.
package storage

import (
	"fmt"
	"math"
	"sort"

	"powerroute/internal/timeseries"
)

// lyapunovCluster holds one cluster's immutable controller constants,
// derived at construction from its price series and battery spec.
type lyapunovCluster struct {
	v     float64 // effective penalty weight (kWh per $/MWh), clamped to vmax
	theta float64 // virtual-queue offset (kWh): X = SoC − theta
	eta   float64 // one-way efficiency √η, cached from the battery spec
	hours float64 // interval length, for converting energy gaps to rates
}

// Lyapunov is the fourth dispatch policy: the online drift-plus-penalty
// controller of Urgaonkar et al. Every decision is a pure function of the
// cluster index, the current spot price, and the battery's state of
// charge — the virtual queue is *derived* from SoC rather than stored —
// so the policy itself carries no mutable per-step state. That is a
// deliberate checkpoint-design choice: battery SoC already round-trips
// bit-exactly through checkpoint v2 (storage.Snapshot), therefore a
// restored engine reproduces every future Lyapunov decision bit-for-bit
// with nothing new to serialize, and shard merges stay clean because the
// controller constants are per-cluster and immutable.
//
// Unlike the textbook bang-bang rule, actions are rate-limited to the
// indifference point: the controller charges or discharges only far enough
// that the post-action SoC's threshold meets the current price, never past
// it. Overshooting is what makes naive Lyapunov dispatch churn — a
// full-rate hour can swing T(SoC) across the entire price distribution,
// buying and reselling the same energy through the round-trip loss. With
// rate-to-indifference dispatch every marginal stored kWh at SoC level s
// is bought only below T(s)·η and sold only above T(s)/η — the same T(s)
// both times — so each round trip covers at least 1/η² and the battery can
// never lose money against the storage-free bill.
type Lyapunov struct {
	requestedV float64 // the V the caller asked for (0 = auto), for Name()
	auto       bool
	perCluster []lyapunovCluster
}

// robustBounds returns low/high price anchors for the controller: the 2nd
// and 98th percentiles of the finite samples, widened back to the absolute
// extremes when the inner quantiles collapse. Spot markets are heavy-
// tailed — sizing V against a once-in-39-months spike collapses it by an
// order of magnitude and with it the arbitrage band, so the feasibility
// bound anchors to the bulk of the distribution and lets the State's
// physical clamps absorb the rare excursions outside it.
func robustBounds(values []float64) (pmin, pmax float64, ok bool) {
	finite := make([]float64, 0, len(values))
	for _, p := range values {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			continue
		}
		finite = append(finite, p)
	}
	if len(finite) == 0 {
		return 0, 0, false
	}
	sort.Float64s(finite)
	n := len(finite)
	lo := finite[int(math.Round(0.02*float64(n-1)))]
	hi := finite[int(math.Round(0.98*float64(n-1)))]
	if !(hi > lo) {
		lo, hi = finite[0], finite[n-1]
	}
	return lo, hi, hi > lo
}

// NewLyapunov builds the controller from each cluster's full real-time
// price series (fleet order — only robust price bounds are extracted, not
// the shape, so this is not a forecast), the battery fleet, and the
// interval length.
//
// v is the penalty weight trading queue stability against cost: larger v
// chases cheap prices harder but needs more capacity headroom to stay
// feasible. It is clamped per cluster to the feasibility bound
//
//	vmax = cap / (η·pmax − pmin/η)
//
// under which every in-band price maps its charge/discharge target SoC
// inside [0, cap]: the battery runs empty at the robust price ceiling and
// full at the robust floor. v <= 0 selects vmax itself for every cluster —
// the operating point where the O(1/V) optimality gap is smallest. When
// the robust spread is narrower than the round-trip loss (η²·pmax ≤ pmin)
// no profitable arbitrage exists and the controller degenerates to a
// vanishing V, holding the battery idle.
func NewLyapunov(prices []*timeseries.Series, batteries []Battery, stepHours, v float64) (*Lyapunov, error) {
	if len(prices) == 0 {
		return nil, fmt.Errorf("storage: lyapunov policy needs at least one price series")
	}
	if len(prices) != len(batteries) {
		return nil, fmt.Errorf("storage: %d price series for %d batteries", len(prices), len(batteries))
	}
	if !(stepHours > 0) || math.IsInf(stepHours, 1) {
		return nil, fmt.Errorf("storage: step length %v hours must be positive and finite", stepHours)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("storage: penalty weight %v must be finite", v)
	}
	l := &Lyapunov{requestedV: v, auto: v <= 0, perCluster: make([]lyapunovCluster, len(prices))}
	for c, s := range prices {
		b := batteries[c]
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("storage: cluster %d: %w", c, err)
		}
		pmin, pmax, ok := robustBounds(s.Values)
		if !ok {
			return nil, fmt.Errorf("storage: cluster %d: price series spans [%v, %v], no spread to arbitrage", c, pmin, pmax)
		}
		eta := b.onewayEfficiency()
		vmax := 0.0
		if span := eta*pmax - pmin/eta; span > 0 {
			vmax = b.CapacityKWh / span
		}
		vc := v
		if l.auto || (vmax > 0 && vc > vmax) {
			vc = vmax
		}
		if !(vc > 0) {
			// Either the battery stores nothing or the robust spread is
			// inside the round-trip loss; fall back to a vanishing weight
			// (the efficiency-scaled band then excludes every in-band
			// price, so the controller stays idle).
			vc = math.SmallestNonzeroFloat64
			if b.CapacityKWh > 0 {
				vc = b.CapacityKWh / (pmax - pmin) / 1e6
			}
		}
		// θ places the queue so the discharge target SoC hits empty exactly
		// at the robust price ceiling: T(0) = η·pmax.
		l.perCluster[c] = lyapunovCluster{v: vc, theta: vc * eta * pmax, eta: eta, hours: stepHours}
	}
	return l, nil
}

// Name implements Policy. The auto form names the feasibility-bound
// operating point; an explicit V is echoed so sweeps stay distinguishable
// in reports and world hashes.
func (l *Lyapunov) Name() string {
	if l.auto {
		return "lyapunov(V=auto)"
	}
	return fmt.Sprintf("lyapunov(V=%g)", l.requestedV)
}

// ClusterCount implements the sizing check in Config.Validate.
func (l *Lyapunov) ClusterCount() int { return len(l.perCluster) }

// indifference returns cluster c's SoC-dependent threshold price
// T(SoC) = (θ − SoC)/V. Prices below it (scaled by the charge-leg
// efficiency) trigger charging, prices above it (scaled by the
// discharge-leg efficiency) trigger discharging; the efficiency scaling
// opens a dead band that keeps lossy batteries from churning.
func (l *lyapunovCluster) indifference(socKWh float64) float64 {
	return (l.theta - socKWh) / l.v
}

// Action implements Policy: rate-to-indifference control from the current
// spot price and state of charge only. The returned rate moves SoC exactly
// to the level whose threshold meets this price (capped by the spec's rate
// limits), never past it. Deterministic and allocation-free — the step hot
// path calls this once per cluster per interval, and
// TestStepDoesNotAllocate pins the whole path at zero heap allocations.
func (l *Lyapunov) Action(c int, price, _ float64, s *State) float64 {
	lc := &l.perCluster[c]
	t := lc.indifference(s.socKWh)
	switch {
	case price*lc.eta > t:
		// Selling stored energy down to the indifference SoC beats holding
		// it even after the discharge-leg loss.
		target := lc.theta - lc.v*price*lc.eta
		kw := (s.socKWh - target) * lc.eta / lc.hours
		return -math.Min(kw, s.spec.MaxDischargeKW)
	case price < t*lc.eta:
		// Buying up to the indifference SoC beats waiting even after the
		// charge-leg loss.
		target := lc.theta - lc.v*price/lc.eta
		kw := (target - s.socKWh) / (lc.eta * lc.hours)
		return math.Min(kw, s.spec.MaxChargeKW)
	default:
		return 0
	}
}

// PriceCap implements PriceCapper: while the battery holds charge, the
// cluster never looks more expensive to the router than the controller's
// current discharge threshold, because the battery absorbs anything above
// it. The cap moves with SoC — a fuller battery advertises a lower
// ceiling — but it is a pure function of checkpointed state, so restored
// and sharded runs reproduce the routing signal exactly.
func (l *Lyapunov) PriceCap(c int, s *State) float64 {
	if s.socKWh <= 0 || s.spec.MaxDischargeKW <= 0 {
		return math.Inf(1)
	}
	lc := &l.perCluster[c]
	return lc.indifference(s.socKWh) / lc.eta
}

// Indifference exposes cluster c's current threshold price for a given
// state of charge (diagnostics and tests).
func (l *Lyapunov) Indifference(c int, socKWh float64) float64 {
	return l.perCluster[c].indifference(socKWh)
}
