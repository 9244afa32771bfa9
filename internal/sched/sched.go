// Package sched implements the deferrable (batch) traffic class: jobs
// with an arrival step, a deadline, an energy size, and a
// partial-execution floor, held in per-cluster FIFO queues and drained
// by a deterministic dispatch rule.
//
// The dispatch rule is the demand-charge/price-chasing policy from
// PAPERS.md's partial-execution and workload-modulation lines of work:
// batch energy is deferred whenever serving it now would mint a new
// monthly demand-charge peak (the peak guard) or whenever the lagged
// decision price at the home cluster sits above that cluster's
// percentile threshold — and, when migration is enabled, deferred
// energy chases low prices across the clusters reachable through the
// routing policy's candidate structure.
//
// Everything here is a pure function of its inputs: the scheduler is
// part of the deterministic engine core, is serialized into checkpoints,
// and must replay, restore, and shard-merge bit for bit.
package sched

import (
	"fmt"
	"math"
)

// Job is one deferrable batch job as configured in a scenario or
// ingested by the daemon. Steps are engine step indices; Deadline is
// exclusive — the job may execute during steps [Arrival, Deadline), so
// a job with Deadline == Arrival+1 must run entirely on arrival.
type Job struct {
	// Cluster is the home cluster index the job arrives at.
	Cluster int
	// Arrival is the step index the job becomes available.
	Arrival int
	// Deadline is the first step index the job may no longer run.
	// Whatever energy is still unserved when the deadline passes is
	// shed (counted, never silently dropped).
	Deadline int
	// EnergyKWh is the total grid energy the job needs.
	EnergyKWh float64
	// MinFraction is the partial-execution floor in [0, 1]: the
	// fraction of EnergyKWh that must be served by the deadline
	// regardless of price or peak guards. 1 means the job is firm;
	// 0 means it may be shed entirely when conditions never improve.
	MinFraction float64
}

// Config is the scenario-level description of the batch class. It is
// pure data: hashable into the world hash and sliceable by
// Scenario.Shard.
type Config struct {
	// MaxBatchKW caps the extra grid power the batch class may draw at
	// each cluster, one entry per cluster.
	MaxBatchKW []float64
	// Thresholds is the per-cluster decision-price ceiling ($/MWh):
	// non-urgent batch energy is served at a cluster only while the
	// lagged decision price is at or below its threshold.
	Thresholds []float64
	// PeakGuard defers non-urgent batch energy that would push a
	// cluster's grid draw above its recorded monthly demand-charge
	// peak.
	PeakGuard bool
	// Migrate lets deferred batch energy execute at another cluster in
	// the same routing component when that cluster's price gate is
	// open and it has budget and peak headroom to spare.
	Migrate bool
	// Jobs are the scenario-driven arrivals, sorted by Arrival. Daemon
	// runs leave this empty and ingest jobs at runtime instead.
	Jobs []Job
}

// Validate checks cfg against a fleet of nc clusters.
func (c *Config) Validate(nc int) error {
	if len(c.MaxBatchKW) != nc {
		return fmt.Errorf("sched: MaxBatchKW has %d entries for %d clusters", len(c.MaxBatchKW), nc)
	}
	if len(c.Thresholds) != nc {
		return fmt.Errorf("sched: Thresholds has %d entries for %d clusters", len(c.Thresholds), nc)
	}
	for i, kw := range c.MaxBatchKW {
		if math.IsNaN(kw) || math.IsInf(kw, 0) || kw < 0 {
			return fmt.Errorf("sched: MaxBatchKW[%d] = %v", i, kw)
		}
	}
	for i, th := range c.Thresholds {
		if math.IsNaN(th) || math.IsInf(th, 0) {
			return fmt.Errorf("sched: Thresholds[%d] = %v", i, th)
		}
	}
	prev := math.MinInt64
	for i, j := range c.Jobs {
		if j.Cluster < 0 || j.Cluster >= nc {
			return fmt.Errorf("sched: job %d targets cluster %d of %d", i, j.Cluster, nc)
		}
		if j.Arrival < 0 || j.Deadline <= j.Arrival {
			return fmt.Errorf("sched: job %d has arrival %d, deadline %d", i, j.Arrival, j.Deadline)
		}
		if j.Arrival < prev {
			return fmt.Errorf("sched: jobs are not sorted by arrival (job %d arrives at %d after %d)", i, j.Arrival, prev)
		}
		prev = j.Arrival
		if math.IsNaN(j.EnergyKWh) || math.IsInf(j.EnergyKWh, 0) || j.EnergyKWh <= 0 {
			return fmt.Errorf("sched: job %d has energy %v kWh", i, j.EnergyKWh)
		}
		if math.IsNaN(j.MinFraction) || j.MinFraction < 0 || j.MinFraction > 1 {
			return fmt.Errorf("sched: job %d has min fraction %v", i, j.MinFraction)
		}
	}
	return nil
}

// QueuedJob is the in-queue form of a job: arrival is implicit (it is
// already enqueued) and progress is tracked in served energy. The JSON
// tags are the checkpoint wire form.
type QueuedJob struct {
	Deadline    int     `json:"deadline"`
	TotalKWh    float64 `json:"total_kwh"`
	ServedKWh   float64 `json:"served_kwh"`
	MinFraction float64 `json:"min_fraction"`
}

// remaining is the unserved energy of the job.
func (j QueuedJob) remaining() float64 { return j.TotalKWh - j.ServedKWh }

// QueueState is one cluster's serialized queue, in FIFO order.
type QueueState struct {
	Jobs []QueuedJob `json:"jobs,omitempty"`
}

// Scheduler holds the per-cluster batch queues and drains them each
// step. It lives inside sim.Engine and follows the engine's
// checkpoint discipline.
//
// ckpt:state State,RestoreState
type Scheduler struct {
	maxKW      []float64 // ckpt:immutable configuration fixed at construction
	thresholds []float64 // ckpt:immutable configuration fixed at construction
	peakGuard  bool      // ckpt:immutable configuration fixed at construction
	jobs       []Job     // ckpt:immutable scenario arrival schedule fixed at construction
	// siblings[c] lists the other clusters in c's routing component in
	// ascending order; nil when migration is off.
	siblings [][]int // ckpt:immutable derived from the routing policy at construction

	// queues[c] is cluster c's FIFO of live jobs.
	queues [][]QueuedJob
	// nextJob indexes the first scenario job not yet enqueued.
	nextJob int // ckpt:derived recomputed from the step cursor on restore

	// budgetKWh and headKWh are per-step dispatch scratch: leftover
	// batch budget and peak headroom after the home pass, consumed by
	// the migration pass.
	budgetKWh []float64 // ckpt:derived per-step scratch
	headKWh   []float64 // ckpt:derived per-step scratch
}

// NewScheduler builds a scheduler for nc clusters. siblings is the
// routing-component adjacency used by migration (nil when cfg.Migrate
// is false); it is retained, not copied.
func NewScheduler(cfg *Config, nc int, siblings [][]int) (*Scheduler, error) {
	if err := cfg.Validate(nc); err != nil {
		return nil, err
	}
	if cfg.Migrate && siblings == nil {
		return nil, fmt.Errorf("sched: migration enabled without a routing component structure")
	}
	s := &Scheduler{
		maxKW:      cfg.MaxBatchKW,
		thresholds: cfg.Thresholds,
		peakGuard:  cfg.PeakGuard,
		jobs:       cfg.Jobs,
		queues:     make([][]QueuedJob, nc),
		budgetKWh:  make([]float64, nc),
		headKWh:    make([]float64, nc),
	}
	if cfg.Migrate {
		s.siblings = siblings
	}
	// Pre-size each queue for the scenario's arrivals so steady-state
	// Step never grows a queue: a cluster holds at most its total
	// scenario job count at once.
	perCluster := make([]int, nc)
	for _, j := range cfg.Jobs {
		perCluster[j.Cluster]++
	}
	for c, n := range perCluster {
		if n > 0 {
			s.queues[c] = make([]QueuedJob, 0, n)
		}
	}
	return s, nil
}

// PeakGuarded reports whether the monthly-peak guard is enabled.
func (s *Scheduler) PeakGuarded() bool { return s.peakGuard }

// Push appends a job to cluster c's queue. This is the daemon ingest
// path; it may grow the queue.
func (s *Scheduler) Push(c int, j QueuedJob) {
	s.queues[c] = append(s.queues[c], j)
}

// EnqueueArrivals pushes every scenario job with Arrival <= step that
// has not been enqueued yet. Steady-state runs call it with a
// monotonically increasing step, so each job is enqueued exactly once.
func (s *Scheduler) EnqueueArrivals(step int) {
	for s.nextJob < len(s.jobs) && s.jobs[s.nextJob].Arrival <= step {
		j := s.jobs[s.nextJob]
		s.queues[j.Cluster] = append(s.queues[j.Cluster], QueuedJob{
			Deadline:    j.Deadline,
			TotalKWh:    j.EnergyKWh,
			MinFraction: j.MinFraction,
		})
		s.nextJob++
	}
}

// QueuedKWh returns the unserved energy queued at cluster c.
func (s *Scheduler) QueuedKWh(c int) float64 {
	var kwh float64
	for _, j := range s.queues[c] {
		kwh += j.remaining()
	}
	return kwh
}

// Dispatch drains the queues for one step. decision holds the lagged
// decision price per cluster; headroomKW is the remaining distance to
// each cluster's recorded monthly peak (nil disables the peak guard for
// this step even when configured — e.g. no demand meters). It fills the
// caller's batchKW (grid power drawn by the batch class at each serving
// cluster) and shedKWh (energy abandoned at expired deadlines, at the
// home cluster) and returns nothing else; job progress is mutated in
// place. All iteration is in fixed ascending order, so the result is a
// pure function of the queue state and inputs.
func (s *Scheduler) Dispatch(step int, stepHours float64, decision, headroomKW, batchKW, shedKWh []float64) {
	for c := range batchKW {
		batchKW[c] = 0
		shedKWh[c] = 0
	}
	for c := range s.queues {
		// Expire: shed whatever is left of jobs whose deadline passed.
		q := s.queues[c]
		kept := q[:0]
		for i := range q {
			if q[i].Deadline <= step {
				shedKWh[c] += q[i].remaining()
				continue
			}
			kept = append(kept, q[i])
		}
		s.queues[c] = kept

		budget := s.maxKW[c] * stepHours
		head := math.Inf(1)
		if s.peakGuard && headroomKW != nil {
			head = headroomKW[c] * stepHours
		}

		// Urgent pass: spread each job's remaining minimum-fraction
		// obligation evenly over its remaining steps. Urgent energy
		// ignores the price gate and the peak guard (the floor is a
		// hard SLA) but still respects the batch power budget.
		q = s.queues[c]
		for i := range q {
			if budget <= 0 {
				break
			}
			j := &q[i]
			need := j.MinFraction*j.TotalKWh - j.ServedKWh
			if need <= 0 {
				continue
			}
			steps := float64(j.Deadline - step) // >= 1 after expiry
			amount := need / steps
			if amount > budget {
				amount = budget
			}
			serve(j, amount)
			batchKW[c] += amount / stepHours
			budget -= amount
			head -= amount
		}

		// Price-gated home pass: while the decision price is at or
		// below the threshold, drain the queue FIFO within budget and
		// peak headroom.
		if decision[c] <= s.thresholds[c] {
			avail := budget
			if head < avail {
				avail = head
			}
			for i := range q {
				if avail <= 0 {
					break
				}
				j := &q[i]
				amount := j.remaining()
				if amount <= 0 {
					continue
				}
				if amount > avail {
					amount = avail
				}
				serve(j, amount)
				batchKW[c] += amount / stepHours
				avail -= amount
				budget -= amount
				head -= amount
			}
		}
		s.budgetKWh[c] = budget
		s.headKWh[c] = head
	}

	// Migration pass: clusters whose price gate is shut push queued
	// energy to cheaper siblings with spare budget and headroom. The
	// energy is drawn (and billed, and metered) at the serving cluster;
	// the job itself never leaves its home queue, which keeps the
	// per-cluster checkpoint scatter disjoint.
	if s.siblings == nil {
		return
	}
	for c := range s.queues {
		if decision[c] <= s.thresholds[c] {
			continue // home gate was open; leftovers already had their chance
		}
		q := s.queues[c]
		for _, t := range s.siblings[c] {
			if decision[t] > s.thresholds[t] {
				continue
			}
			avail := s.budgetKWh[t]
			if s.headKWh[t] < avail {
				avail = s.headKWh[t]
			}
			if avail <= 0 {
				continue
			}
			for i := range q {
				if avail <= 0 {
					break
				}
				j := &q[i]
				amount := j.remaining()
				if amount <= 0 {
					continue
				}
				if amount > avail {
					amount = avail
				}
				serve(j, amount)
				batchKW[t] += amount / stepHours
				avail -= amount
				s.budgetKWh[t] -= amount
				s.headKWh[t] -= amount
			}
		}
	}
}

// serve credits amount kWh against j, snapping to exactly TotalKWh when
// the job completes so float residue never leaves a phantom job queued.
func serve(j *QueuedJob, amount float64) {
	if amount >= j.remaining() {
		j.ServedKWh = j.TotalKWh
		return
	}
	j.ServedKWh += amount
}

// Compact drops completed jobs from every queue, preserving FIFO order
// of the survivors. The engine calls it once per step after dispatch so
// checkpoints never carry finished jobs.
func (s *Scheduler) Compact() {
	for c := range s.queues {
		q := s.queues[c]
		kept := q[:0]
		for i := range q {
			if q[i].ServedKWh < q[i].TotalKWh {
				kept = append(kept, q[i])
			}
		}
		s.queues[c] = kept
	}
}

// State serializes every queue for a checkpoint, in cluster order.
func (s *Scheduler) State() []QueueState {
	out := make([]QueueState, len(s.queues))
	for c, q := range s.queues {
		out[c].Jobs = append([]QueuedJob(nil), q...)
	}
	return out
}

// RestoreState loads serialized queues, validating them against the
// restored step cursor, and re-derives the scenario arrival cursor.
func (s *Scheduler) RestoreState(states []QueueState, stepsRun int) error {
	if len(states) != len(s.queues) {
		return fmt.Errorf("sched: %d queue states for %d clusters", len(states), len(s.queues))
	}
	for c, st := range states {
		for i, j := range st.Jobs {
			if j.Deadline < stepsRun {
				return fmt.Errorf("sched: queue %d job %d has deadline %d behind step cursor %d", c, i, j.Deadline, stepsRun)
			}
			if math.IsNaN(j.TotalKWh) || math.IsInf(j.TotalKWh, 0) || j.TotalKWh <= 0 {
				return fmt.Errorf("sched: queue %d job %d has total %v kWh", c, i, j.TotalKWh)
			}
			if math.IsNaN(j.ServedKWh) || j.ServedKWh < 0 || j.ServedKWh >= j.TotalKWh {
				return fmt.Errorf("sched: queue %d job %d has served %v of %v kWh", c, i, j.ServedKWh, j.TotalKWh)
			}
			if math.IsNaN(j.MinFraction) || j.MinFraction < 0 || j.MinFraction > 1 {
				return fmt.Errorf("sched: queue %d job %d has min fraction %v", c, i, j.MinFraction)
			}
		}
		s.queues[c] = append(s.queues[c][:0], st.Jobs...)
	}
	// Scenario jobs with Arrival < stepsRun were consumed before the
	// checkpoint; the cursor resumes at the first later arrival.
	s.nextJob = 0
	for s.nextJob < len(s.jobs) && s.jobs[s.nextJob].Arrival < stepsRun {
		s.nextJob++
	}
	return nil
}
