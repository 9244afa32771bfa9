package sim

import (
	"math"
	"testing"

	"powerroute/internal/sched"
)

// TestBatchEnergyConservation drives the batch scenario one step at a
// time and checks the scheduler's books balance at every step: every kWh
// of batch energy that has arrived is either served, shed at a deadline,
// or still queued — nothing is minted and nothing silently disappears.
func TestBatchEnergyConservation(t *testing.T) {
	sc := engineScenarios(t)["batch"]
	eng, err := NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	jobs := sc.Batch.Jobs
	arrived := 0.0
	cursor := 0
	for step := 1; step <= sc.Steps; step++ {
		driveSteps(t, eng, sc, 1)
		// Jobs with Arrival <= step-1 were enqueued during the steps run
		// so far (jobs are sorted by Arrival).
		for cursor < len(jobs) && jobs[cursor].Arrival < step {
			arrived += jobs[cursor].EnergyKWh
			cursor++
		}
		snap := eng.Snapshot()
		queued := 0.0
		for _, kwh := range snap.BatchQueuedKWh {
			queued += kwh
		}
		got := snap.BatchServedKWh + snap.BatchShedKWh + queued
		if diff := math.Abs(got - arrived); diff > 1e-6*math.Max(1, arrived) {
			t.Fatalf("step %d: served %v + shed %v + queued %v = %v, but %v kWh arrived (off by %v)",
				step, snap.BatchServedKWh, snap.BatchShedKWh, queued, got, arrived, diff)
		}
	}
	res, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// The scenario must actually exercise every ledger, or the invariant
	// above is vacuous.
	if res.BatchServedKWh <= 0 {
		t.Error("scenario served no batch energy")
	}
	if res.BatchShedKWh <= 0 {
		t.Error("scenario shed no batch energy (deadlines never bound)")
	}
	if res.BatchDeferredKWhSteps <= 0 {
		t.Error("scenario deferred no batch energy (queues never waited)")
	}
	total := 0.0
	for _, j := range jobs {
		total += j.EnergyKWh
	}
	final := res.BatchServedKWh + res.BatchShedKWh + res.BatchQueuedKWh
	if diff := math.Abs(final - total); diff > 1e-6*total {
		t.Fatalf("final books: served %v + shed %v + queued %v = %v, workload %v",
			res.BatchServedKWh, res.BatchShedKWh, res.BatchQueuedKWh, final, total)
	}
}

// TestQueueJobsValidation checks the daemon ingest path: invalid jobs are
// rejected atomically — a bad job anywhere in the slice leaves nothing
// enqueued — and valid ones land in their home queues.
func TestQueueJobsValidation(t *testing.T) {
	sc := engineScenarios(t)["batch"]
	sc.Batch = &sched.Config{
		MaxBatchKW: sc.Batch.MaxBatchKW,
		Thresholds: sc.Batch.Thresholds,
		PeakGuard:  sc.Batch.PeakGuard,
		Migrate:    sc.Batch.Migrate,
	}
	eng, err := NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, eng, sc, 3)
	good := sched.Job{Cluster: 0, Arrival: 3, Deadline: 10, EnergyKWh: 5, MinFraction: 0.5}

	bad := []struct {
		name string
		job  sched.Job
	}{
		{"cluster out of range", sched.Job{Cluster: len(sc.Fleet.Clusters), Deadline: 10, EnergyKWh: 5}},
		{"deadline not in the future", sched.Job{Cluster: 0, Deadline: 3, EnergyKWh: 5}},
		{"non-positive energy", sched.Job{Cluster: 0, Deadline: 10, EnergyKWh: 0}},
		{"non-finite energy", sched.Job{Cluster: 0, Deadline: 10, EnergyKWh: math.Inf(1)}},
		{"bad fraction", sched.Job{Cluster: 0, Deadline: 10, EnergyKWh: 5, MinFraction: 1.5}},
	}
	for _, tc := range bad {
		if err := eng.QueueJobs([]sched.Job{good, tc.job}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	snap := eng.Snapshot()
	for c, kwh := range snap.BatchQueuedKWh {
		if kwh != 0 {
			t.Fatalf("cluster %d has %v kWh queued after rejected posts (atomicity broken)", c, kwh)
		}
	}

	if err := eng.QueueJobs([]sched.Job{good, {Cluster: 1, Arrival: 3, Deadline: 8, EnergyKWh: 2, MinFraction: 1}}); err != nil {
		t.Fatal(err)
	}
	snap = eng.Snapshot()
	if snap.BatchQueuedKWh[0] != 5 || snap.BatchQueuedKWh[1] != 2 {
		t.Fatalf("queued = %v, want 5 and 2 at clusters 0 and 1", snap.BatchQueuedKWh[:2])
	}

	// An engine without a batch class refuses jobs outright.
	plain := engineScenarios(t)["optimizer"]
	peng, err := NewEngine(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := peng.QueueJobs([]sched.Job{good}); err == nil {
		t.Error("engine without a scheduler accepted jobs")
	}
}
