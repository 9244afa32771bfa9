package routing

import (
	"math"
	"testing"
)

func TestJointOptimizerExtremes(t *testing.T) {
	f := testFleet(t)
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	prices[il] = 20

	// Weight 0: pure price routing — everything in reach piles onto the
	// cheapest cluster, exactly like the price optimizer without bounds.
	j0, err := NewJointOptimizer(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := mkContext(f, 1000, prices)
	assign := mkAssign(f)
	if err := j0.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	total := totalAssigned(t, ctx, assign)
	var ilLoad float64
	for s := range assign {
		ilLoad += assign[s][il]
	}
	want := math.Min(float64(f.Clusters[il].Capacity), total)
	if math.Abs(ilLoad-want) > 1e-6*want {
		t.Errorf("w=0: Chicago load %v, want %v", ilLoad, want)
	}

	// Huge weight: proximity routing — Massachusetts stays in Boston no
	// matter the price.
	jInf, err := NewJointOptimizer(f, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	ctx = mkContext(f, 1000, prices)
	assign = mkAssign(f)
	if err := jInf.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	var ma int
	for i, st := range f.States {
		if st.Code == "MA" {
			ma = i
		}
	}
	bos, _ := f.Index("MA")
	if assign[ma][bos] < 999 {
		t.Errorf("w=inf: MA→Boston %v, want all", assign[ma][bos])
	}
}

func TestJointOptimizerTradesOff(t *testing.T) {
	f := testFleet(t)
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	prices[il] = 30 // $50 cheaper than everywhere else

	var ma int
	for i, st := range f.States {
		if st.Code == "MA" {
			ma = i
		}
	}
	// MA→IL is ~1350 km farther than MA→Boston. At w=0.01 the detour
	// costs ~$13.5-equivalent against a $50 price edge: go. At w=0.1 it
	// costs ~$135: stay.
	for _, c := range []struct {
		w    float64
		toIL bool
	}{
		{0.01, true},
		{0.1, false},
	} {
		j, err := NewJointOptimizer(f, c.w)
		if err != nil {
			t.Fatal(err)
		}
		ctx := mkContext(f, 1000, prices)
		assign := mkAssign(f)
		if err := j.Allocate(ctx, assign); err != nil {
			t.Fatal(err)
		}
		wentIL := assign[ma][il] > 500
		if wentIL != c.toIL {
			t.Errorf("w=%v: MA→IL=%v, want %v", c.w, assign[ma][il], c.toIL)
		}
	}
}

func TestJointOptimizerRespectsRoom(t *testing.T) {
	f := testFleet(t)
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	prices[il] = 20
	j, _ := NewJointOptimizer(f, 0)
	ctx := mkContext(f, 1000, prices)
	ctx.Room[il] = 2000
	assign := mkAssign(f)
	if err := j.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	var ilLoad float64
	for s := range assign {
		ilLoad += assign[s][il]
	}
	if ilLoad > 2000+1e-9 {
		t.Errorf("room violated: %v", ilLoad)
	}
}

func TestJointOptimizerValidation(t *testing.T) {
	f := testFleet(t)
	if _, err := NewJointOptimizer(f, -1); err == nil {
		t.Error("negative weight should fail")
	}
	j, _ := NewJointOptimizer(f, 0.05)
	if j.Name() == "" {
		t.Error("empty name")
	}
	ctx := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	if err := j.Allocate(ctx, mkAssign(f)[:3]); err == nil {
		t.Error("short assign should fail")
	}
	ctx.Demand = ctx.Demand[:4]
	if err := j.Allocate(ctx, mkAssign(f)); err == nil {
		t.Error("short demand should fail")
	}
	ctx = mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	ctx.Room = nil
	if err := j.Allocate(ctx, mkAssign(f)); err == nil {
		t.Error("missing room should fail")
	}
}

func TestJointOptimizerOrderCache(t *testing.T) {
	f := testFleet(t)
	j, _ := NewJointOptimizer(f, 0.01)
	prices := flatPrices(len(f.Clusters), 50)
	ctx := mkContext(f, 100, prices)
	a1 := mkAssign(f)
	if err := j.Allocate(ctx, a1); err != nil {
		t.Fatal(err)
	}
	// Same prices: cached orders give the identical allocation.
	ctx2 := mkContext(f, 100, prices)
	a2 := mkAssign(f)
	if err := j.Allocate(ctx2, a2); err != nil {
		t.Fatal(err)
	}
	for s := range a1 {
		for c := range a1[s] {
			if a1[s][c] != a2[s][c] {
				t.Fatal("cached allocation differs")
			}
		}
	}
	// Changed prices invalidate the cache and change the allocation.
	prices2 := flatPrices(len(f.Clusters), 50)
	il, _ := f.Index("IL")
	prices2[il] = 1
	ctx3 := mkContext(f, 100, prices2)
	a3 := mkAssign(f)
	if err := j.Allocate(ctx3, a3); err != nil {
		t.Fatal(err)
	}
	same := true
	for s := range a1 {
		for c := range a1[s] {
			if a1[s][c] != a3[s][c] {
				same = false
			}
		}
	}
	if same {
		t.Error("price change did not affect allocation")
	}
}
