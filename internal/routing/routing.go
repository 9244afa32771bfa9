// Package routing implements the request-routing policies the paper
// simulates (§6.1):
//
//   - Baseline: an Akamai-like proximity assignment with stable per-state
//     affinity weights, the cost reference all savings are measured against.
//   - PriceOptimizer: the paper's distance-constrained electricity price
//     optimizer — map each client to the cheapest cluster within a radial
//     distance threshold, ignore differentials below a price threshold
//     ($5/MWh), and walk to the next-best cluster when capacity or the 95/5
//     boundary is near.
//   - AllToOne: the static "move all servers to the cheapest market"
//     comparison of §6.3 (Fig 18).
//
// Policies allocate per-state demand onto clusters through a two-tier room
// model: preferred room (under the 95/5 soft cap) and burst room (between
// the cap and physical capacity, usable only while the billing burst budget
// lasts). The simulation engine owns the tier bookkeeping; policies just
// honor it.
package routing

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"powerroute/internal/cluster"
)

// DefaultPriceThreshold is the dead-band under which price differentials
// are ignored (§6.1: "we use $5/MWh").
const DefaultPriceThreshold = 5.0

// Context carries one decision step's inputs.
type Context struct {
	At time.Time
	// Demand is the per-state demand in hits/s.
	Demand []float64
	// DecisionPrices is the per-cluster price the router believes ($/MWh).
	// With a reaction delay these are stale relative to the billing prices
	// (§6.4).
	DecisionPrices []float64
	// Room is each cluster's remaining preferred allocation (under the
	// 95/5 cap and capacity). Mutated by Allocate.
	Room []float64
	// BurstRoom is each cluster's additional room above the 95/5 cap up to
	// physical capacity; zero when bursting is not allowed this interval.
	// Mutated by Allocate.
	BurstRoom []float64
	// Placed is an output: Allocate resets it and lists every assign cell
	// it wrote to (see Policy). Callers may preallocate it at
	// states×clusters capacity, the most distinct cells one call writes,
	// so it never grows.
	Placed []Cell
}

// Cell names one state×cluster entry of an assignment matrix.
type Cell struct {
	State, Cluster int
}

// Policy maps demand onto clusters.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Allocate fills assign[state][cluster] (pre-zeroed, dimensions
	// states×clusters) with hit rates, consuming Room/BurstRoom.
	//
	// It also resets ctx.Placed and lists in it each cell it leaves
	// nonzero, exactly once, in ascending state order: a policy walks the
	// states in ascending order and writes only the current state's row,
	// logging a cell on its first write (the rows arrive zeroed). Every
	// cluster's cells therefore appear in the order a dense
	// state-by-state scan would visit them, so a caller summing per
	// cluster over Placed gets the dense scan's sums bit for bit.
	Allocate(ctx *Context, assign [][]float64) error
}

// Sharder is a Policy that can be split across disjoint cluster regions
// (one powerrouted instance per electricity market region). Candidates
// names the clusters a state is assigned to in normal operation; a
// partition is routing-closed when every state's candidates live in the
// same shard as the state, so the shard's allocations reproduce the joint
// run's exactly. ShardPolicy rebuilds the equivalent policy over a
// sub-fleet carved out by cluster.Fleet.Subfleet.
type Sharder interface {
	Policy
	// Candidates returns the clusters state s may be assigned to in
	// normal (non-saturated) operation, in no particular order. Callers
	// must not mutate the returned slice.
	Candidates(s int) []int
	// ShardPolicy builds this policy's equivalent over a sub-fleet.
	ShardPolicy(sub *cluster.Fleet) (Policy, error)
}

// validate sanity-checks dimensions shared by all policies.
func validate(f *cluster.Fleet, ctx *Context, assign [][]float64) error {
	ns, nc := len(f.States), len(f.Clusters)
	if len(ctx.Demand) != ns {
		return fmt.Errorf("routing: %d demands for %d states", len(ctx.Demand), ns)
	}
	if len(ctx.DecisionPrices) != nc {
		return fmt.Errorf("routing: %d prices for %d clusters", len(ctx.DecisionPrices), nc)
	}
	if len(ctx.Room) != nc || len(ctx.BurstRoom) != nc {
		return fmt.Errorf("routing: room vectors sized %d/%d, want %d", len(ctx.Room), len(ctx.BurstRoom), nc)
	}
	if len(assign) != ns {
		return fmt.Errorf("routing: assign has %d rows, want %d", len(assign), ns)
	}
	return nil
}

// place adds v (> 0) to cell (s, c), whose row is row, logging the cell in
// ctx.Placed on its first write. It is the only code that adds into an
// assign row, which is what keeps Placed complete.
func place(ctx *Context, row []float64, s, c int, v float64) {
	if row[c] == 0 {
		ctx.Placed = append(ctx.Placed, Cell{State: s, Cluster: c})
	}
	row[c] += v
}

// fill assigns state s's demand to clusters in the given preference order,
// consuming preferred room first and burst room second. It returns the
// demand it could not place.
func fill(order []int, demand float64, ctx *Context, s int, row []float64) float64 {
	remaining := demand
	for _, c := range order {
		if remaining <= 0 {
			return 0
		}
		take := ctx.Room[c]
		if take > remaining {
			take = remaining
		}
		if take > 0 {
			place(ctx, row, s, c, take)
			ctx.Room[c] -= take
			remaining -= take
		}
	}
	for _, c := range order {
		if remaining <= 0 {
			return 0
		}
		take := ctx.BurstRoom[c]
		if take > remaining {
			take = remaining
		}
		if take > 0 {
			place(ctx, row, s, c, take)
			ctx.BurstRoom[c] -= take
			remaining -= take
		}
	}
	return remaining
}

// Baseline is the Akamai-like reference policy: stable affinity weights per
// state (§6.1 "we used statistics of how Akamai routed clients to model an
// Akamai-like router"), with overflow spilling to the nearest cluster with
// room.
type Baseline struct {
	fleet   *cluster.Fleet
	weights [][]float64
	nearest [][]int // distance-ordered cluster indices per state
}

// NewBaseline precomputes the affinity weights for a fleet.
func NewBaseline(f *cluster.Fleet) *Baseline {
	b := &Baseline{
		fleet:   f,
		weights: make([][]float64, len(f.States)),
		nearest: make([][]int, len(f.States)),
	}
	for s := range f.States {
		b.weights[s] = f.AffinityWeights(s)
		b.nearest[s] = distanceOrder(f, s)
	}
	return b
}

// Name implements Policy.
func (b *Baseline) Name() string { return "akamai-baseline" }

// Allocate implements Policy.
func (b *Baseline) Allocate(ctx *Context, assign [][]float64) error {
	ctx.Placed = ctx.Placed[:0]
	if err := validate(b.fleet, ctx, assign); err != nil {
		return err
	}
	for s, demand := range ctx.Demand {
		if demand <= 0 {
			continue
		}
		row := assign[s]
		spill := 0.0
		for c, w := range b.weights[s] {
			if w == 0 {
				continue
			}
			want := w * demand
			take := ctx.Room[c]
			if take > want {
				take = want
			}
			if take > 0 {
				place(ctx, row, s, c, take)
				ctx.Room[c] -= take
			}
			spill += want - take
		}
		if spill > 0 {
			if left := fill(b.nearest[s], spill, ctx, s, row); left > 0 {
				// Fleet saturated: overload the nearest cluster; the engine
				// clamps utilization and reports the excess.
				place(ctx, row, s, b.nearest[s][0], left)
			}
		}
	}
	return nil
}

// Weights exposes the per-state affinity weights (diagnostics and the
// synthetic Akamai-like router of §6.3).
func (b *Baseline) Weights(state int) []float64 {
	return b.weights[state]
}

// Candidates implements Sharder: the clusters carrying nonzero affinity
// weight for the state (its normal-operation assignment support).
func (b *Baseline) Candidates(s int) []int {
	var out []int
	for c, w := range b.weights[s] {
		if w > 0 {
			out = append(out, c)
		}
	}
	return out
}

// ShardPolicy implements Sharder. The sub-fleet's affinity weights equal
// the full fleet's restricted to its clusters exactly when each owned
// state's weight support is owned — the routing-closure condition the
// shard split validates.
func (b *Baseline) ShardPolicy(sub *cluster.Fleet) (Policy, error) {
	return NewBaseline(sub), nil
}

// PriceOptimizer is the paper's distance-constrained electricity price
// optimizer (§6.1).
type PriceOptimizer struct {
	fleet          *cluster.Fleet
	thresholdKm    float64
	priceThreshold float64
	candidates     [][]int // per state, distance-sorted (with <50km fallback)
	nearest        [][]int // per state, all clusters by distance (spill order)

	// Decision prices only change hourly while 5-minute runs allocate 12
	// times per hour, so everything below is cached until the price
	// vector changes. It is a pure cache: every value it holds after a
	// refresh is a function of the current price vector alone, and the
	// previous vector only decides which work a refresh may skip. That is
	// what keeps a restored or sharded engine (whose optimizer starts
	// cold) routing bit for bit like an uninterrupted one. Policies are
	// not goroutine-safe; the engine runs one policy per scenario.
	lastPrices []float64
	orders     [][]int // per state: materialized preference order (slow sets and >64-cluster fleets)

	// Rank-space tables (fleets of ≤ 64 clusters). The clusters are
	// ranked once per price change by (price, index); states with the
	// same candidate set share one dead-band tier and one ascending-price
	// tail, both cut from the set's rank bitmask. Allocate routes straight
	// off them: dead-band members in the state's own candidate order, then
	// the tail in rank order, without materializing per-state preference
	// orders.
	byRank    []int     // clusters by ascending (price, index); the previous ranking seeds the next sort
	rankBit   []uint64  // per cluster: 1 << its rank
	bandRanks []uint64  // per rank r: the ranks priced within the dead-band of rank r's price
	bandMask  []uint64  // per rank r: the clusters at those ranks
	sets      []candSet // the distinct candidate sets
	setOf     []int     // per state: its set's index in sets
	// firstPick is each state's first candidate in its set's dead-band
	// tier, or -1 when the state walks orders[s] (slow sets, and every
	// state of a fleet over 64 clusters).
	firstPick []int
}

// candSet is one distinct candidate set and its rank-space tables.
type candSet struct {
	mask    uint64 // its clusters
	members []int  // its clusters in ascending index order
	states  []int  // the states that share it
	cheap   uint64 // members within the dead-band of the set minimum
	tail    uint64 // members beyond the dead-band, as a rank bitmask (ascending bits = ascending price)
	// slow marks a set whose states walk materialized per-state orders:
	// equal prices in the tail need each state's own distance tie-breaks,
	// and an empty dead-band (a NaN cutoff, −Inf + +Inf) has no first
	// pick. Every set starts slow, so the first refresh walks them all.
	slow bool
}

// NewPriceOptimizer builds the optimizer for a fleet. thresholdKm is the
// maximum client-to-cluster distance considered (0 degenerates to
// closest-cluster routing; larger than coast-to-coast degenerates to pure
// price routing, §6.1). priceThreshold is the differential dead-band in
// $/MWh; pass DefaultPriceThreshold for the paper's $5.
func NewPriceOptimizer(f *cluster.Fleet, thresholdKm, priceThreshold float64) (*PriceOptimizer, error) {
	if thresholdKm < 0 || math.IsNaN(thresholdKm) {
		return nil, fmt.Errorf("routing: distance threshold %v km, want ≥ 0", thresholdKm)
	}
	if priceThreshold < 0 || math.IsNaN(priceThreshold) {
		return nil, fmt.Errorf("routing: price threshold %v $/MWh, want ≥ 0", priceThreshold)
	}
	p := &PriceOptimizer{
		fleet:          f,
		thresholdKm:    thresholdKm,
		priceThreshold: priceThreshold,
		candidates:     make([][]int, len(f.States)),
		nearest:        make([][]int, len(f.States)),
	}
	for s := range f.States {
		p.candidates[s] = f.CandidatesWithin(s, thresholdKm)
		p.nearest[s] = distanceOrder(f, s)
	}
	p.firstPick = make([]int, len(f.States))
	for s := range p.firstPick {
		p.firstPick[s] = -1
	}
	if nc := len(f.Clusters); nc <= 64 {
		p.setOf = make([]int, len(f.States))
		seen := make(map[uint64]int)
		for s, cands := range p.candidates {
			var m uint64
			for _, c := range cands {
				m |= 1 << uint(c)
			}
			g, ok := seen[m]
			if !ok {
				g = len(p.sets)
				seen[m] = g
				set := candSet{mask: m, slow: true}
				for mm := m; mm != 0; mm &= mm - 1 {
					set.members = append(set.members, bits.TrailingZeros64(mm))
				}
				p.sets = append(p.sets, set)
			}
			p.setOf[s] = g
			p.sets[g].states = append(p.sets[g].states, s)
		}
		p.byRank = make([]int, nc)
		for c := range p.byRank {
			p.byRank[c] = c
		}
		p.rankBit = make([]uint64, nc)
		p.bandRanks = make([]uint64, nc)
		p.bandMask = make([]uint64, nc)
	}
	return p, nil
}

// Name implements Policy.
func (p *PriceOptimizer) Name() string {
	return fmt.Sprintf("price-optimizer(%.0fkm,$%.0f)", p.thresholdKm, p.priceThreshold)
}

// ThresholdKm returns the distance threshold.
func (p *PriceOptimizer) ThresholdKm() float64 { return p.thresholdKm }

// Candidates implements Sharder: the state's distance-constrained
// candidate set (with the paper's <50km nearest-cluster fallback). The
// outward walk past the candidates only fires when every candidate is
// full, which in a routing-closed partition stays inside the shard until
// the whole region saturates.
func (p *PriceOptimizer) Candidates(s int) []int { return p.candidates[s] }

// ShardPolicy implements Sharder: the same thresholds over the sub-fleet.
func (p *PriceOptimizer) ShardPolicy(sub *cluster.Fleet) (Policy, error) {
	return NewPriceOptimizer(sub, p.thresholdKm, p.priceThreshold)
}

// Allocate implements Policy. For each state it prefers the cheapest
// in-range cluster; differentials below the price threshold are ignored in
// favor of proximity, and full clusters hand off to the next candidate.
func (p *PriceOptimizer) Allocate(ctx *Context, assign [][]float64) error {
	ctx.Placed = ctx.Placed[:0]
	if err := validate(p.fleet, ctx, assign); err != nil {
		return err
	}
	if err := p.refreshOrders(ctx.DecisionPrices); err != nil {
		return err
	}
	for s, demand := range ctx.Demand {
		if demand <= 0 {
			continue
		}
		row := assign[s]
		var left float64
		if c := p.firstPick[s]; c < 0 {
			left = fill(p.orders[s], demand, ctx, s, row)
		} else if ctx.Room[c] >= demand {
			// Fast path: the state's first dead-band candidate has room
			// for everything — the exact assignment the full walk makes.
			place(ctx, row, s, c, demand)
			ctx.Room[c] -= demand
			continue
		} else {
			set := &p.sets[p.setOf[s]]
			left = fillSet(p.candidates[s], set.cheap, set.tail, p.byRank, demand, ctx, s, row)
		}
		if left > 0 {
			// All in-range clusters are full: the distance constraint
			// yields to feasibility and the excess walks outward to the
			// nearest cluster with room ("the optimizer iteratively finds
			// another good cluster", §6.1).
			left = fill(p.nearest[s], left, ctx, s, row)
		}
		if left > 0 {
			place(ctx, row, s, p.nearest[s][0], left) // fleet saturated; engine reports overload
		}
	}
	return nil
}

// refreshOrders brings the routing tables up to date with prices; an
// unchanged vector costs one comparison pass. A NaN price is an error:
// it has no place in a price ranking, and every ingest path already
// rejects non-finite prices.
//
// On fleets of ≤ 64 clusters it works in rank space, once per price
// change rather than once per state:
//
//  1. Rank the clusters by (price, index), insertion-sorting the
//     previous ranking: prices move little between steps, so it is
//     nearly sorted, and the result is the one sorted order either way.
//  2. Sweep the ranking once with two pointers: bandRanks[r] holds every
//     rank priced at or below the price at rank r plus priceThreshold —
//     the same cutoff expression and <= test preferenceOrder applies to
//     a candidate set whose cheapest member has rank r.
//  3. Per distinct candidate set, cut its rank bitmask at its lowest
//     rank's band: the members inside are its dead-band tier (each state
//     walks them in its own candidate order), the ones above its tail in
//     ascending (price, index) order. That is preferenceOrder's tail
//     unless two tail prices are equal, where the tie-break is each
//     state's own distance. Only then — checked only when the ranking
//     found equal prices at all — is the set marked slow and its states'
//     orders built by preferenceOrder.
//  4. Re-walk each state's first pick only in sets whose dead-band tier
//     or slow mark changed; elsewhere it is still the first candidate in
//     the same tier.
//
// Every table is thus a function of the current prices alone (see the
// pure-cache rule on PriceOptimizer). Fleets of more than 64 clusters
// build every state's order with preferenceOrder.
func (p *PriceOptimizer) refreshOrders(prices []float64) error {
	if p.orders != nil && equalPrices(p.lastPrices, prices) {
		return nil
	}
	for c, pc := range prices {
		if math.IsNaN(pc) {
			return fmt.Errorf("routing: NaN decision price for cluster %s", p.fleet.Clusters[c].Code)
		}
	}
	if p.orders == nil {
		p.orders = make([][]int, len(p.candidates))
		for s := range p.orders {
			p.orders[s] = make([]int, 0, len(p.candidates[s]))
		}
		p.lastPrices = make([]float64, len(prices))
	}
	copy(p.lastPrices, prices)
	if p.byRank == nil {
		for s := range p.candidates {
			p.orders[s] = p.preferenceOrder(s, prices, p.orders[s][:0])
		}
		return nil
	}

	byRank := p.byRank
	for i := 1; i < len(byRank); i++ {
		c := byRank[i]
		pc := prices[c]
		j := i - 1
		for ; j >= 0; j-- {
			pj := prices[byRank[j]]
			if pc > pj || (pc == pj && c > byRank[j]) {
				break
			}
			byRank[j+1] = byRank[j]
		}
		byRank[j+1] = c
	}
	anyEqual := false
	end, inRanks, inClusters := 0, uint64(0), uint64(0)
	for r, c := range byRank {
		pr := prices[c]
		p.rankBit[c] = 1 << uint(r)
		if r > 0 && pr == prices[byRank[r-1]] {
			anyEqual = true
		}
		cutoff := pr + p.priceThreshold
		for end < len(byRank) && prices[byRank[end]] <= cutoff {
			inRanks |= 1 << uint(end)
			inClusters |= 1 << uint(byRank[end])
			end++
		}
		p.bandRanks[r], p.bandMask[r] = inRanks, inClusters
	}

	for g := range p.sets {
		set := &p.sets[g]
		var ranks uint64
		for _, c := range set.members {
			ranks |= p.rankBit[c]
		}
		lo := bits.TrailingZeros64(ranks)
		cheap := set.mask & p.bandMask[lo]
		set.tail = ranks &^ p.bandRanks[lo]
		slow := cheap == 0
		if anyEqual && !slow {
			for m := set.tail; m&(m-1) != 0; m &= m - 1 {
				next := m & (m - 1)
				if prices[byRank[bits.TrailingZeros64(m)]] == prices[byRank[bits.TrailingZeros64(next)]] {
					slow = true
					break
				}
			}
		}
		if !slow && !set.slow && cheap == set.cheap {
			continue
		}
		set.cheap, set.slow = cheap, slow
		for _, s := range set.states {
			if slow {
				p.orders[s] = p.preferenceOrder(s, prices, p.orders[s][:0])
				p.firstPick[s] = -1
				continue
			}
			for _, c := range p.candidates[s] {
				if cheap&(1<<uint(c)) != 0 {
					p.firstPick[s] = c
					break
				}
			}
		}
	}
	return nil
}

// fillSet is fill over the virtual order [members of cheap, in cands
// order] ++ [byRank[r] for each bit r of tail, ascending], without
// materializing it: the same two tiers (committed room across the whole
// sequence, then burst room), the same walk, the same arithmetic —
// bit-identical to fill on the concatenated slice.
func fillSet(cands []int, cheap, tail uint64, byRank []int, demand float64, ctx *Context, s int, row []float64) float64 {
	remaining := demand
	for _, c := range cands {
		if cheap&(1<<uint(c)) == 0 {
			continue
		}
		if remaining <= 0 {
			return 0
		}
		take := ctx.Room[c]
		if take > remaining {
			take = remaining
		}
		if take > 0 {
			place(ctx, row, s, c, take)
			ctx.Room[c] -= take
			remaining -= take
		}
	}
	for m := tail; m != 0; m &= m - 1 {
		if remaining <= 0 {
			return 0
		}
		c := byRank[bits.TrailingZeros64(m)]
		take := ctx.Room[c]
		if take > remaining {
			take = remaining
		}
		if take > 0 {
			place(ctx, row, s, c, take)
			ctx.Room[c] -= take
			remaining -= take
		}
	}
	for _, c := range cands {
		if cheap&(1<<uint(c)) == 0 {
			continue
		}
		if remaining <= 0 {
			return 0
		}
		take := ctx.BurstRoom[c]
		if take > remaining {
			take = remaining
		}
		if take > 0 {
			place(ctx, row, s, c, take)
			ctx.BurstRoom[c] -= take
			remaining -= take
		}
	}
	for m := tail; m != 0; m &= m - 1 {
		if remaining <= 0 {
			return 0
		}
		c := byRank[bits.TrailingZeros64(m)]
		take := ctx.BurstRoom[c]
		if take > remaining {
			take = remaining
		}
		if take > 0 {
			place(ctx, row, s, c, take)
			ctx.BurstRoom[c] -= take
			remaining -= take
		}
	}
	return remaining
}

func equalPrices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// preferenceOrder ranks state s's candidates: clusters priced within the
// dead-band of the in-range minimum come first (nearest first among them),
// the rest follow by ascending price then distance.
func (p *PriceOptimizer) preferenceOrder(s int, prices []float64, order []int) []int {
	cands := p.candidates[s]
	pmin := prices[cands[0]]
	for _, c := range cands[1:] {
		if prices[c] < pmin {
			pmin = prices[c]
		}
	}
	cutoff := pmin + p.priceThreshold
	// Cheap tier in candidate (distance) order.
	for _, c := range cands {
		if prices[c] <= cutoff {
			order = append(order, c)
		}
	}
	head := len(order)
	for _, c := range cands {
		if prices[c] > cutoff {
			order = append(order, c)
		}
	}
	rest := order[head:]
	dist := p.fleet.DistanceKm[s]
	// Stable insertion sort: rest is at most a handful of cluster indices
	// and this runs for every state on every price change, where
	// sort.SliceStable's reflection-based swapper dominated the whole
	// simulation profile (~60% of the hourly step loop).
	for i := 1; i < len(rest); i++ {
		c := rest[i]
		j := i - 1
		for j >= 0 && (prices[c] < prices[rest[j]] ||
			(prices[c] == prices[rest[j]] && dist[c] < dist[rest[j]])) {
			rest[j+1] = rest[j]
			j--
		}
		rest[j+1] = c
	}
	return order
}

// ApplyPriceCaps caps each decision price at caps[c] in place. The
// simulation engine uses it to make the routing signal storage-aware: a
// cluster whose battery serves the load above its discharge threshold
// never looks more expensive to the router than that threshold, so a
// price spike at a charged site no longer repels traffic the battery
// would have absorbed. A cap of +Inf (or any value at or above the price)
// leaves the signal untouched, preserving byte-identical behavior for
// storage-free runs.
func ApplyPriceCaps(prices, caps []float64) {
	for c := range prices {
		if c < len(caps) && caps[c] < prices[c] {
			prices[c] = caps[c]
		}
	}
}

// AllToOne sends every request to a single cluster index: the static
// solution of §6.3 ("place all servers in cheapest market").
type AllToOne struct {
	fleet  *cluster.Fleet
	target int
	order  [1]int // the one-element preference order, so Allocate stays allocation-free
}

// NewAllToOne builds the static policy for the given cluster index.
func NewAllToOne(f *cluster.Fleet, target int) (*AllToOne, error) {
	if target < 0 || target >= len(f.Clusters) {
		return nil, fmt.Errorf("routing: target %d out of range", target)
	}
	return &AllToOne{fleet: f, target: target, order: [1]int{target}}, nil
}

// Name implements Policy.
func (a *AllToOne) Name() string {
	return "static-" + a.fleet.Clusters[a.target].Code
}

// Allocate implements Policy.
func (a *AllToOne) Allocate(ctx *Context, assign [][]float64) error {
	ctx.Placed = ctx.Placed[:0]
	if err := validate(a.fleet, ctx, assign); err != nil {
		return err
	}
	order := a.order[:]
	for s, demand := range ctx.Demand {
		if demand <= 0 {
			continue
		}
		if left := fill(order, demand, ctx, s, assign[s]); left > 0 {
			place(ctx, assign[s], s, a.target, left) // static site saturated; engine reports overload
		}
	}
	return nil
}

// distanceOrder returns cluster indices sorted by distance from state s.
func distanceOrder(f *cluster.Fleet, s int) []int {
	order := make([]int, len(f.Clusters))
	for i := range order {
		order[i] = i
	}
	dist := f.DistanceKm[s]
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
	return order
}
