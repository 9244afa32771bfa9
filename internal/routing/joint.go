package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// JointOptimizer implements the §8 "Implementing Joint Optimization"
// direction: instead of a hard distance threshold with price tie-breaking,
// it minimizes a weighted objective per unit of traffic,
//
//	score(state, cluster) = price($/MWh) + DistanceWeight · distance(km)
//
// folding the performance goal into the optimization itself the way
// existing traffic-engineering frameworks fold bandwidth and reliability.
// DistanceWeight is the operator's exchange rate between a kilometer of
// client distance and a dollar per MWh of energy price: 0 recovers pure
// price chasing, large values recover proximity routing.
type JointOptimizer struct {
	fleet          fleetLike
	distanceWeight float64
	nearest        [][]int

	lastPrices []float64
	orders     [][]int
	scores     []float64
}

// fleetLike is the slice of cluster.Fleet the optimizer needs; it keeps
// the joint optimizer testable with small fixtures.
type fleetLike interface {
	StateCount() int
	ClusterCount() int
	Distance(state, cluster int) float64
}

// NewJointOptimizer builds the weighted-objective policy.
func NewJointOptimizer(f fleetLike, distanceWeight float64) (*JointOptimizer, error) {
	if distanceWeight < 0 || math.IsNaN(distanceWeight) {
		return nil, fmt.Errorf("routing: distance weight %v $/MWh per km, want ≥ 0", distanceWeight)
	}
	j := &JointOptimizer{
		fleet:          f,
		distanceWeight: distanceWeight,
		nearest:        make([][]int, f.StateCount()),
	}
	for s := 0; s < f.StateCount(); s++ {
		order := make([]int, f.ClusterCount())
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return f.Distance(s, order[a]) < f.Distance(s, order[b])
		})
		j.nearest[s] = order
	}
	return j, nil
}

// Name implements Policy.
func (j *JointOptimizer) Name() string {
	return fmt.Sprintf("joint-optimizer(w=%.3g$/km)", j.distanceWeight)
}

// Allocate implements Policy: states fill clusters in ascending score
// order, falling back through the score ranking as clusters fill.
func (j *JointOptimizer) Allocate(ctx *Context, assign [][]float64) error {
	ctx.Placed = ctx.Placed[:0]
	ns, nc := j.fleet.StateCount(), j.fleet.ClusterCount()
	if len(ctx.Demand) != ns {
		return fmt.Errorf("routing: %d demands for %d states", len(ctx.Demand), ns)
	}
	if len(ctx.DecisionPrices) != nc || len(ctx.Room) != nc || len(ctx.BurstRoom) != nc {
		return errors.New("routing: context dimensions wrong")
	}
	if len(assign) != ns {
		return fmt.Errorf("routing: assign has %d rows, want %d", len(assign), ns)
	}
	j.refreshOrders(ctx.DecisionPrices)
	for s, demand := range ctx.Demand {
		if demand <= 0 {
			continue
		}
		left := fill(j.orders[s], demand, ctx, s, assign[s])
		if left > 0 {
			place(ctx, assign[s], s, j.nearest[s][0], left)
		}
	}
	return nil
}

// refreshOrders recomputes the score-sorted cluster orders when prices
// change (prices change hourly; 5-minute runs reuse the cache).
func (j *JointOptimizer) refreshOrders(prices []float64) {
	if j.orders != nil && equalPrices(j.lastPrices, prices) {
		return
	}
	ns, nc := j.fleet.StateCount(), j.fleet.ClusterCount()
	if j.orders == nil {
		j.orders = make([][]int, ns)
		for s := range j.orders {
			j.orders[s] = make([]int, nc)
		}
		j.lastPrices = make([]float64, nc)
		j.scores = make([]float64, nc)
	}
	for s := 0; s < ns; s++ {
		order := j.orders[s]
		for c := 0; c < nc; c++ {
			order[c] = c
			j.scores[c] = prices[c] + j.distanceWeight*j.fleet.Distance(s, c)
		}
		scores := j.scores
		sort.Slice(order, func(a, b int) bool {
			if scores[order[a]] != scores[order[b]] {
				return scores[order[a]] < scores[order[b]]
			}
			return j.fleet.Distance(s, order[a]) < j.fleet.Distance(s, order[b])
		})
	}
	copy(j.lastPrices, prices)
}
