package sim

import (
	"math"
	"testing"

	"powerroute/internal/routing"
	"powerroute/internal/stats"
)

// TestMeteringMatchesDenseScan keeps the dense state-by-state scan of the
// assignment matrix as the reference for Step's metering, which walks
// only the cells the policy placed (routing.Policy's Placed contract).
// For every policy, each step's ClusterRate must equal the ascending-state
// column sums of Assignments() bit for bit, and the final distance mean
// and p99 must equal those of per-cluster histograms filled from the
// dense matrices. A policy that writes a cell without logging it fails
// here.
func TestMeteringMatchesDenseScan(t *testing.T) {
	fx := fixtures()
	scenarios := engineScenarios(t)
	// AllToOne saturates its one site, so the overload path is metered.
	allToOne, err := routing.NewAllToOne(fx.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}
	static := shortScenario()
	static.Policy = allToOne
	scenarios["all-to-one"] = static
	joint, err := routing.NewJointOptimizer(fx.Fleet, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	weighted := shortScenario()
	weighted.Policy = joint
	scenarios["joint"] = weighted

	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			sc := clonePolicy(t, sc)
			eng, err := NewEngine(sc)
			if err != nil {
				t.Fatal(err)
			}
			nc := len(sc.Fleet.Clusters)
			stepHours := sc.Step.Hours()
			hists := make([]*stats.WeightedHistogram, nc)
			for c := range hists {
				hists[c] = newDistHist()
			}
			col := make([]float64, nc)
			var assign [][]float64
			var snap *Snapshot
			cells := 0
			for step := 0; step < sc.Steps; step++ {
				driveSteps(t, eng, sc, 1)
				assign = eng.Assignments(assign)
				clear(col)
				for s, row := range assign {
					for c, rate := range row {
						if rate <= 0 {
							continue
						}
						col[c] += rate
						hists[c].Add(sc.Fleet.DistanceKm[s][c], rate*stepHours)
						cells++
					}
				}
				snap = eng.SnapshotInto(snap)
				for c := range col {
					if math.Float64bits(snap.ClusterRate[c]) != math.Float64bits(col[c]) {
						t.Fatalf("step %d cluster %d: metered rate %v, dense column sum %v", step, c, snap.ClusterRate[c], col[c])
					}
				}
			}
			if cells == 0 {
				t.Fatal("no cell was ever assigned: the comparison tested nothing")
			}
			res, err := eng.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			fold := newDistHist()
			for _, h := range hists {
				if err := fold.Merge(h); err != nil {
					t.Fatal(err)
				}
			}
			if math.Float64bits(res.MeanDistanceKm) != math.Float64bits(fold.Mean()) {
				t.Fatalf("mean distance %v km, dense reference %v", res.MeanDistanceKm, fold.Mean())
			}
			if p99 := fold.Quantile(0.99); math.Float64bits(res.P99DistanceKm) != math.Float64bits(p99) {
				t.Fatalf("p99 distance %v km, dense reference %v", res.P99DistanceKm, p99)
			}
		})
	}
}
