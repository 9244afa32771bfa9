// Durable engine state: a Checkpoint captures every per-step structure an
// Engine owns — billing meters (including per-month demand peaks), 95/5
// burst budgets, battery state-of-charge, the per-cluster distance
// histograms, step cursor, and running totals — so a long-horizon run
// survives a process death. The encoding is versioned and
// self-describing: a text magic line names the format, a JSON envelope
// carries the small state plus the declared length and SHA-256 of a
// binary payload holding the numeric bulk (meter samples, histogram
// bins, the last assignment matrix). Old or
// foreign checkpoints fail loudly instead of loading wrong, and a world
// hash ties every checkpoint to the exact world (fleet, prices, policy,
// tariffs) that produced it.
//
// The restore invariant, enforced by test and by CI's crash-recovery job:
// replay N steps → Checkpoint → kill → Restore → replay the rest produces
// the uninterrupted batch Run's Result bit for bit. Everything in the
// checkpoint round-trips exactly — floats travel as raw bits in the
// payload and as Go's shortest-round-trip decimals in the envelope.
package sim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"powerroute/internal/billing"
	"powerroute/internal/sched"
	"powerroute/internal/stats"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
	"powerroute/internal/units"
)

// CheckpointVersion is the format this build writes and the only one it
// restores. Bump it whenever the engine grows per-step state the old
// layout cannot carry; old files then fail with a version error rather
// than restoring a silently incomplete engine.
//
// v2 made checkpoints mergeable across shards: fleet-wide scalars
// (total cost/energy, overload, storage totals, carbon) became
// per-cluster vectors, and the envelope gained the cluster/state codes
// plus the shard identity (parent world hash and fleet positions). A v1
// file cannot express per-cluster overload or storage totals, so it
// refuses to load instead of restoring zeros silently.
//
// v3 finished the per-cluster program for the distance distribution: the
// single fleet histogram became one histogram per cluster (hist_bytes is
// now a per-cluster length vector framing per-cluster payload blobs), so
// MergeCheckpoints scatters them disjointly and the merged mean/p99 are
// bit-exact instead of float-associativity-close. v3 also added the
// optional burst_leases section for coordinated (fleet-gated) burst
// accounting. A v2 file's joint histogram cannot be split back into
// per-cluster parts, so it refuses to load.
const CheckpointVersion = 3

const (
	checkpointMagicPrefix = "powerroute-checkpoint v"
	checkpointMagic       = "powerroute-checkpoint v3"

	// maxCheckpointPayload bounds the declared payload size a decoder will
	// read: a 39-month hourly world checkpoints in single-digit megabytes,
	// so anything near this cap is corrupt or hostile.
	maxCheckpointPayload = 1 << 30
)

// Totals holds the running sums that accumulate while stepping — all of
// them per cluster. Fleet-wide figures (the Result's TotalCost,
// TotalEnergy, overload seconds, storage totals, carbon) are derived from
// these in fleet order at Snapshot/Finalize time, never accumulated across
// clusters, which is what lets a shard merge scatter each cluster's sums
// into fleet positions and reproduce the joint run's figures bit for bit.
// Finalize-only fields (billable p95s, demand charges) are recomputed from
// the restored meters when the run ends.
//
// ckpt:state Checkpoint,loadCheckpoint,MergeCheckpoints
type Totals struct {
	ClusterCost   []units.Money  `json:"cluster_cost_usd"`  // running bill per cluster (dollars)
	ClusterEnergy []units.Energy `json:"cluster_energy_wh"` // running grid energy per cluster (watt-hours)
	PeakRate      []float64      `json:"peak_rate"`         // maximum assigned rate per cluster so far
	// MeanUtilizationSum is the running per-cluster utilization sum;
	// Finalize divides by the step count.
	MeanUtilizationSum []float64 `json:"mean_utilization_sum"`
	// OverloadSec is each cluster's demand-beyond-capacity seconds.
	OverloadSec []float64 `json:"overload_sec"`

	// StorageBoughtKWh and StorageServedKWh are per-cluster storage
	// totals, present exactly when the scenario configures storage. They
	// repeat each battery snapshot's BoughtKWh and ServedKWh, and restore
	// refuses a total that differs from its snapshot.
	StorageBoughtKWh []float64 `json:"storage_bought_kwh,omitempty"`
	StorageServedKWh []float64 `json:"storage_served_kwh,omitempty"`

	// ClusterCarbonKg is the per-cluster emissions ledger, present exactly
	// when the scenario meters carbon.
	ClusterCarbonKg []float64 `json:"cluster_carbon_kg,omitempty"`

	// Batch class ledgers (served / shed-at-deadline / queue residence
	// integral per cluster), present exactly when the scenario configures
	// the deferrable class.
	BatchServedKWh   []float64 `json:"batch_served_kwh,omitempty"`
	BatchShedKWh     []float64 `json:"batch_shed_kwh,omitempty"`
	BatchDeferredKWh []float64 `json:"batch_deferred_kwh_steps,omitempty"`
}

// Checkpoint is a complete, self-contained snapshot of an Engine mid-run.
// Build one with Engine.Checkpoint, persist it with Encode/WriteFile, and
// turn it back into a live engine with Restore. Its JSON tags are the
// envelope's fields (checkpointEnvelope adds only the payload framing);
// the fields tagged "-" travel in the binary payload.
//
// ckpt:state MergeCheckpoints
type Checkpoint struct {
	Version   int    `json:"version"`    // format version; Restore accepts only CheckpointVersion
	WorldHash string `json:"world_hash"` // sha256 over the world definition; ties the state to its exact world

	// ShardOf carries the parent world's hash when this checkpoint was
	// taken by a shard engine (a scenario built by Scenario.Shard), and is
	// empty for whole-world checkpoints. MergeCheckpoints requires every
	// part to name the same parent — that is the shard-compatibility
	// guard — and stamps the merged checkpoint's WorldHash with it, so
	// the merge restores only into the exact joint world.
	ShardOf string `json:"shard_of,omitempty"`

	// Configuration echoes: Restore refuses a checkpoint whose geometry
	// disagrees with the target scenario even before the world hash check,
	// so error messages name the exact mismatch.
	Policy        string        `json:"policy"`         // routing policy name
	Start         time.Time     `json:"start"`          // scenario start
	Step          time.Duration `json:"step_ns"`        // interval length
	ScenarioSteps int           `json:"scenario_steps"` // horizon length in intervals
	Clusters      int           `json:"clusters"`       // fleet cluster count
	States        int           `json:"states"`         // fleet client-state count

	// ClusterCodes and StateCodes name the engine's fleet slots in order;
	// ClusterIndex and StateIndex give each slot's position in the parent
	// fleet when sharded (nil otherwise). Codes make restore mismatches
	// nameable; indices are what MergeCheckpoints scatters by.
	ClusterCodes []string `json:"cluster_codes"`
	StateCodes   []string `json:"state_codes"`
	ClusterIndex []int    `json:"cluster_index,omitempty"`
	StateIndex   []int    `json:"state_index,omitempty"`

	StepsRun int       `json:"steps_run"` // step cursor: intervals already advanced
	LastAt   time.Time `json:"last_at"`   // instant of the last advanced interval

	// Totals carries the per-cluster running sums; the optional sections
	// below are present exactly when the scenario configures the matching
	// subsystem (95/5 soft caps, storage, demand-charge tariff) — Restore
	// rejects a checkpoint whose optional sections disagree with the
	// target scenario's configuration. checkpointSections declares every
	// per-cluster section, here and in Totals.
	Totals       Totals                     `json:"totals"`
	Constraints  []billing.ConstraintState  `json:"constraints,omitempty"`
	Batteries    []storage.Snapshot         `json:"batteries,omitempty"`
	DemandMeters []billing.DemandMeterState `json:"demand_meters,omitempty"`
	// BatchQueues holds each cluster's live deferrable-job queue, present
	// exactly when the scenario configures the batch class (jobs stay in
	// their home cluster's queue even when served elsewhere, so the
	// section scatters disjointly across a shard merge).
	BatchQueues []sched.QueueState `json:"batch_queues,omitempty"`
	// BurstLeases books each cluster's coordinated burst-token traffic
	// (granted/used/expired), present exactly when the scenario configures
	// a BurstGate. Tokens are booked at the cluster they were leased to,
	// so the section scatters disjointly across a shard merge.
	BurstLeases []billing.LeaseLedgerState `json:"burst_leases,omitempty"`

	// MeterSamples holds each cluster's full per-interval rate record (the
	// 95/5 bill needs every sample); DistHists the per-cluster hit-weighted
	// distance histograms (fleet order); Loads and Assign the last
	// interval's rates and full state×cluster assignment matrix
	// (status/assignments endpoints). These travel as raw little-endian
	// float64 bits in the binary payload, so they round-trip bit-exactly.
	MeterSamples [][]float64                `json:"-"`
	DistHists    []*stats.WeightedHistogram `json:"-"`
	Loads        []float64                  `json:"-"`
	Assign       [][]float64                `json:"-"`
}

// Checkpoint captures the engine's complete per-run state. The engine is
// not mutated and keeps stepping afterwards; a finalized engine cannot be
// checkpointed (its books are closed — restore targets a live run).
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if e.finalized {
		return nil, errors.New("sim: cannot checkpoint a finalized engine")
	}
	cp := &Checkpoint{
		Version:       CheckpointVersion,
		WorldHash:     e.WorldHash(),
		ShardOf:       e.sc.shardOf,
		Policy:        e.res.Policy,
		Start:         e.sc.Start,
		Step:          e.sc.Step,
		ScenarioSteps: e.sc.Steps,
		Clusters:      e.nc,
		States:        e.ns,
		ClusterCodes:  make([]string, e.nc),
		StateCodes:    make([]string, e.ns),
		ClusterIndex:  append([]int(nil), e.sc.shardClusters...),
		StateIndex:    append([]int(nil), e.sc.shardStates...),
		StepsRun:      e.stepsRun,
		LastAt:        e.lastAt,
		Assign:        make([][]float64, e.ns),
	}
	for c, cl := range e.sc.Fleet.Clusters {
		cp.ClusterCodes[c] = cl.Code
	}
	for s, st := range e.sc.Fleet.States {
		cp.StateCodes[s] = st.Code
	}
	for s := range e.assign {
		cp.Assign[s] = append([]float64(nil), e.assign[s]...)
	}
	for _, sec := range checkpointSections() {
		if sec.keptBy(e) {
			sec.capture(e, cp)
		}
	}
	return cp, nil
}

// Restore builds a fresh engine for the scenario and loads the checkpoint
// into it, resuming the run mid-horizon. The scenario must describe the
// exact world the checkpoint came from: the world hash (fleet, price
// series, policy, tariffs, storage config), every configuration echo and
// every section's presence and length are verified before any state is
// applied; each section then checks its own values as it loads.
func Restore(sc Scenario, cp *Checkpoint) (*Engine, error) {
	eng, err := NewEngine(sc)
	if err != nil {
		return nil, err
	}
	if err := eng.loadCheckpoint(cp); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	return eng, nil
}

// Scenario returns the scenario the engine was built from. Slice and
// pointer fields (fleet, market, policy) are shared with the engine; the
// intended use is rebuilding an equivalent engine, e.g. Restore after a
// PUT /v1/checkpoint.
func (e *Engine) Scenario() Scenario { return e.sc }

// loadCheckpoint validates cp against the freshly built engine and applies
// it. The engine must not have stepped yet; on error it is half-loaded and
// must be discarded, as Restore does.
func (e *Engine) loadCheckpoint(cp *Checkpoint) error {
	if cp == nil {
		return errors.New("nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("checkpoint version %d, this build restores only v%d", cp.Version, CheckpointVersion)
	}
	if e.stepsRun != 0 || e.finalized {
		return errors.New("restore target engine already advanced")
	}
	if cp.Policy != e.res.Policy {
		return fmt.Errorf("checkpoint from policy %q, scenario runs %q", cp.Policy, e.res.Policy)
	}
	if cp.Clusters != e.nc || cp.States != e.ns {
		return fmt.Errorf("checkpoint geometry %d clusters × %d states, scenario has %d × %d",
			cp.Clusters, cp.States, e.nc, e.ns)
	}
	if !cp.Start.Equal(e.sc.Start) || cp.Step != e.sc.Step || cp.ScenarioSteps != e.sc.Steps {
		return fmt.Errorf("checkpoint horizon (start %v, step %v, %d steps) differs from scenario (start %v, step %v, %d steps)",
			cp.Start, cp.Step, cp.ScenarioSteps, e.sc.Start, e.sc.Step, e.sc.Steps)
	}
	if got, want := cp.WorldHash, e.WorldHash(); got != want {
		return fmt.Errorf("world hash mismatch: checkpoint %s, scenario %s (different seed, market, fleet, or tariff)", got, want)
	}
	if cp.ShardOf != e.sc.shardOf {
		return fmt.Errorf("checkpoint shard parent %q, scenario's is %q", cp.ShardOf, e.sc.shardOf)
	}
	if !slices.Equal(cp.ClusterIndex, e.sc.shardClusters) || !slices.Equal(cp.StateIndex, e.sc.shardStates) {
		return errors.New("checkpoint shard positions differ from the scenario's partition")
	}

	// Every section is checked before any loads, in table order, so a
	// checkpoint with several bad sections always reports the same one:
	// first presence against the engine, then the checkpoint's own shape.
	sections := checkpointSections()
	for _, sec := range sections {
		if sec.kept == nil {
			continue
		}
		switch kept, n := sec.kept(e), sec.size(cp); {
		case kept && n == 0:
			return fmt.Errorf("checkpoint has no %s, which the scenario keeps", sec.name)
		case !kept && n > 0:
			return fmt.Errorf("checkpoint carries %s the scenario does not keep", sec.name)
		}
	}
	if err := cp.checkShape(sections); err != nil {
		return fmt.Errorf("checkpoint has %w", err)
	}
	for c, cl := range e.sc.Fleet.Clusters {
		if cp.ClusterCodes[c] != cl.Code {
			return fmt.Errorf("checkpoint cluster %d is %q, scenario's is %q", c, cp.ClusterCodes[c], cl.Code)
		}
	}
	for s, st := range e.sc.Fleet.States {
		if cp.StateCodes[s] != st.Code {
			return fmt.Errorf("checkpoint state %d is %q, scenario's is %q", s, cp.StateCodes[s], st.Code)
		}
	}

	for _, sec := range sections {
		if sec.keptBy(e) {
			if err := sec.load(e, cp); err != nil {
				return err
			}
		}
	}
	for s := range e.assign {
		copy(e.assign[s], cp.Assign[s])
	}
	e.stepsRun = cp.StepsRun
	e.lastAt = cp.LastAt
	return nil
}

// checkShape checks what a checkpoint must meet against its own geometry,
// whatever world it later restores into or merges with: a step cursor
// ≥ 0, one code per cluster and per state, a shard identity whole or
// absent, one value per cluster in every section (or, for an optional
// one, none), steps_run samples in every meter list, a states × clusters
// assignment matrix, and a last_at at the step cursor's instant. DecodeCheckpoint, loadCheckpoint and
// MergeCheckpoints all call it, with the table they walk; its errors read
// after "checkpoint has", and sections are checked in table order.
func (cp *Checkpoint) checkShape(sections []checkpointSection) error {
	nc, ns := cp.Clusters, cp.States
	if cp.StepsRun < 0 {
		return fmt.Errorf("a negative step cursor %d", cp.StepsRun)
	}
	if len(cp.ClusterCodes) != nc || len(cp.StateCodes) != ns {
		return fmt.Errorf("%d cluster codes and %d state codes for %d clusters × %d states",
			len(cp.ClusterCodes), len(cp.StateCodes), nc, ns)
	}
	whole := cp.ShardOf != "" && len(cp.ClusterIndex) == nc && len(cp.StateIndex) == ns
	absent := cp.ShardOf == "" && len(cp.ClusterIndex) == 0 && len(cp.StateIndex) == 0
	if !whole && !absent {
		return fmt.Errorf("a partial shard identity: shard_of %q with %d cluster and %d state positions for %d clusters × %d states",
			cp.ShardOf, len(cp.ClusterIndex), len(cp.StateIndex), nc, ns)
	}
	for _, sec := range sections {
		if n := sec.size(cp); n != nc && (sec.kept == nil || n != 0) {
			return fmt.Errorf("%d %s for %d clusters", n, sec.name, nc)
		}
	}
	for c, samples := range cp.MeterSamples {
		if len(samples) != cp.StepsRun {
			return fmt.Errorf("%d meter samples in cluster %d for %d steps", len(samples), c, cp.StepsRun)
		}
	}
	if len(cp.Assign) != ns {
		return fmt.Errorf("%d assignment rows for %d states", len(cp.Assign), ns)
	}
	for s, row := range cp.Assign {
		if len(row) != nc {
			return fmt.Errorf("%d values in assignment row %d for %d clusters", len(row), s, nc)
		}
	}
	// Every engine steps at its Next(), so the last interval's instant is
	// the cursor's: zero before the first step, start + (steps_run−1)·step
	// after it.
	var last time.Time
	if cp.StepsRun > 0 {
		last = cp.Start.Add(time.Duration(cp.StepsRun-1) * cp.Step)
	}
	if !cp.LastAt.Equal(last) {
		return fmt.Errorf("last_at %v where steps_run %d puts the last interval at %v", cp.LastAt, cp.StepsRun, last)
	}
	return nil
}

// checkpointSection is one per-cluster section of a Checkpoint: one value
// per cluster, in fleet order. Capture, restore, decode and the shard
// merge all walk checkpointSections, so each section is declared once.
// The operations close over the section's element type, which lets one
// table hold sections of different types; newSection builds them.
type checkpointSection struct {
	name string
	// kept reports whether an engine keeps the section; nil for the
	// sections every engine keeps. An optional section is in a checkpoint
	// exactly when the engine that took it keeps the section.
	kept func(e *Engine) bool

	size    func(cp *Checkpoint) int
	capture func(e *Engine, cp *Checkpoint)
	load    func(e *Engine, cp *Checkpoint) error
	// canonical turns an empty section into an absent (nil) one and
	// passes each value through the section's clone, so that
	// decode(encode(decode(x))) equals decode(x).
	canonical func(cp *Checkpoint)
	// alloc sizes the section of a merged checkpoint; scatter deep-copies
	// cluster j of part into cluster c of the merge.
	alloc   func(m *Checkpoint, n int)
	scatter func(m *Checkpoint, c int, part *Checkpoint, j int)
}

// keptBy reports whether e keeps the section.
func (s *checkpointSection) keptBy(e *Engine) bool { return s.kept == nil || s.kept(e) }

// newSection declares a section of T values: at locates it in a
// Checkpoint, capture copies it out of an engine, load checks the values
// that belong to it and copies them back in, and clone deep-copies one
// cluster's value (nil when a plain copy shares nothing).
func newSection[T any](name string, kept func(*Engine) bool, at func(*Checkpoint) *[]T,
	capture func(*Engine) []T, load func(*Engine, *Checkpoint, []T) error, clone func(T) T) checkpointSection {
	if clone == nil {
		clone = func(v T) T { return v }
	}
	return checkpointSection{
		name:    name,
		kept:    kept,
		size:    func(cp *Checkpoint) int { return len(*at(cp)) },
		capture: func(e *Engine, cp *Checkpoint) { *at(cp) = capture(e) },
		load:    func(e *Engine, cp *Checkpoint) error { return load(e, cp, *at(cp)) },
		canonical: func(cp *Checkpoint) {
			v := *at(cp)
			if len(v) == 0 {
				*at(cp) = nil
			}
			for i := range v {
				v[i] = clone(v[i])
			}
		},
		alloc:   func(m *Checkpoint, n int) { *at(m) = make([]T, n) },
		scatter: func(m *Checkpoint, c int, part *Checkpoint, j int) { (*at(m))[c] = clone((*at(part))[j]) },
	}
}

// vectorSection declares a running sum the engine holds as one slice.
func vectorSection[T any](name string, kept func(*Engine) bool, at func(*Checkpoint) *[]T, field func(*Engine) []T) checkpointSection {
	return newSection(name, kept, at,
		func(e *Engine) []T { return slices.Clone(field(e)) },
		func(e *Engine, _ *Checkpoint, v []T) error {
			copy(field(e), v)
			return nil
		}, nil)
}

// storageLedgerSection declares a storage total: one field of every
// battery snapshot, repeated in Totals. The batteries are the only
// ledger, so load changes nothing and refuses a total that differs from
// the checkpoint's own battery snapshot.
func storageLedgerSection(name string, at func(*Checkpoint) *[]float64, field func(storage.Snapshot) float64) checkpointSection {
	return newSection(name, func(e *Engine) bool { return e.batteries != nil }, at,
		func(e *Engine) []float64 {
			return each(e.batteries, func(b *storage.State) float64 { return field(b.Snapshot()) })
		},
		func(e *Engine, cp *Checkpoint, v []float64) error {
			for c, x := range v {
				if want := field(cp.Batteries[c]); x != want {
					return fmt.Errorf("%s: cluster %s has %v kWh where its battery snapshot has %v",
						name, e.sc.Fleet.Clusters[c].Code, x, want)
				}
			}
			return nil
		}, nil)
}

// each returns f of every element of s.
func each[S, T any](s []S, f func(S) T) []T {
	out := make([]T, len(s))
	for i, v := range s {
		out[i] = f(v)
	}
	return out
}

// restoreEach loads v[c] into objs[c] for every cluster c.
func restoreEach[O, T any](objs []O, v []T, restore func(O, T) error) error {
	for c, o := range objs {
		if err := restore(o, v[c]); err != nil {
			return fmt.Errorf("cluster %d: %w", c, err)
		}
	}
	return nil
}

// checkpointSections lists every per-cluster section: first the eight
// every engine keeps, then the optional ones. The order is the order
// restore and merge report errors in. The table is built by a function
// (not a package variable) so ckptfield, which follows same-package calls
// but not variable initializers, sees every field it touches as
// referenced by Checkpoint, loadCheckpoint and MergeCheckpoints.
func checkpointSections() []checkpointSection {
	return []checkpointSection{
		vectorSection("cluster costs", nil,
			func(cp *Checkpoint) *[]units.Money { return &cp.Totals.ClusterCost },
			func(e *Engine) []units.Money { return e.res.ClusterCost }),
		vectorSection("cluster energies", nil,
			func(cp *Checkpoint) *[]units.Energy { return &cp.Totals.ClusterEnergy },
			func(e *Engine) []units.Energy { return e.res.ClusterEnergy }),
		vectorSection("peak rates", nil,
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.PeakRate },
			func(e *Engine) []float64 { return e.res.PeakRate }),
		vectorSection("utilization sums", nil,
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.MeanUtilizationSum },
			func(e *Engine) []float64 { return e.res.MeanUtilization }),
		vectorSection("overload ledgers", nil,
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.OverloadSec },
			func(e *Engine) []float64 { return e.overloadSec }),
		newSection("meter sample lists", nil,
			func(cp *Checkpoint) *[][]float64 { return &cp.MeterSamples },
			func(e *Engine) [][]float64 {
				out := make([][]float64, e.nc)
				for c := range e.meters {
					out[c] = e.meters[c].Samples()
				}
				return out
			},
			func(e *Engine, _ *Checkpoint, v [][]float64) error {
				for c, samples := range v {
					e.meters[c].RestoreSamples(samples)
					// RestoreSamples copies at exact capacity; re-reserve the
					// horizon so the remaining steps record without reallocating.
					e.meters[c].Reserve(e.sc.Steps)
				}
				return nil
			},
			slices.Clone[[]float64]),
		vectorSection("last-interval rates", nil,
			func(cp *Checkpoint) *[]float64 { return &cp.Loads },
			func(e *Engine) []float64 { return e.loads }),
		newSection("distance histograms", nil,
			func(cp *Checkpoint) *[]*stats.WeightedHistogram { return &cp.DistHists },
			func(e *Engine) []*stats.WeightedHistogram {
				return each(e.distHists, (*stats.WeightedHistogram).Clone)
			},
			func(e *Engine, _ *Checkpoint, v []*stats.WeightedHistogram) error {
				for c, h := range v {
					if h == nil {
						return fmt.Errorf("checkpoint missing cluster %d distance histogram", c)
					}
					gotMin, gotMax := h.Bounds()
					wantMin, wantMax := e.distHists[c].Bounds()
					if gotMin != wantMin || gotMax != wantMax || h.NumBins() != e.distHists[c].NumBins() {
						return fmt.Errorf("cluster %d distance histogram geometry [%v, %v]×%d differs from engine's [%v, %v]×%d",
							c, gotMin, gotMax, h.NumBins(), wantMin, wantMax, e.distHists[c].NumBins())
					}
					e.distHists[c] = h.Clone()
				}
				return nil
			},
			(*stats.WeightedHistogram).Clone),

		newSection("95/5 constraint state", func(e *Engine) bool { return e.constraints != nil },
			func(cp *Checkpoint) *[]billing.ConstraintState { return &cp.Constraints },
			func(e *Engine) []billing.ConstraintState { return each(e.constraints, (*billing.Constraint).State) },
			func(e *Engine, cp *Checkpoint, v []billing.ConstraintState) error {
				return restoreEach(e.constraints, v, func(con *billing.Constraint, s billing.ConstraintState) error {
					if s.IntervalsRun != cp.StepsRun {
						return fmt.Errorf("constraint ran %d intervals, checkpoint at step %d", s.IntervalsRun, cp.StepsRun)
					}
					return con.RestoreState(s)
				})
			}, nil),
		newSection("burst lease ledgers", func(e *Engine) bool { return e.leases != nil },
			func(cp *Checkpoint) *[]billing.LeaseLedgerState { return &cp.BurstLeases },
			func(e *Engine) []billing.LeaseLedgerState { return each(e.leases, (*billing.LeaseLedger).State) },
			func(e *Engine, _ *Checkpoint, v []billing.LeaseLedgerState) error {
				return restoreEach(e.leases, v, (*billing.LeaseLedger).RestoreState)
			}, nil),
		newSection("battery snapshots", func(e *Engine) bool { return e.batteries != nil },
			func(cp *Checkpoint) *[]storage.Snapshot { return &cp.Batteries },
			func(e *Engine) []storage.Snapshot { return each(e.batteries, (*storage.State).Snapshot) },
			func(e *Engine, _ *Checkpoint, v []storage.Snapshot) error {
				return restoreEach(e.batteries, v, (*storage.State).RestoreSnapshot)
			}, nil),
		newSection("demand meters", func(e *Engine) bool { return e.demandMeters != nil },
			func(cp *Checkpoint) *[]billing.DemandMeterState { return &cp.DemandMeters },
			func(e *Engine) []billing.DemandMeterState { return each(e.demandMeters, (*billing.DemandMeter).State) },
			func(e *Engine, _ *Checkpoint, v []billing.DemandMeterState) error {
				return restoreEach(e.demandMeters, v, (*billing.DemandMeter).RestoreState)
			},
			func(s billing.DemandMeterState) billing.DemandMeterState {
				return billing.DemandMeterState{
					Months: append([]timeseries.MonthKey(nil), s.Months...),
					Peaks:  append([]float64(nil), s.Peaks...),
				}
			}),
		vectorSection("carbon ledgers", func(e *Engine) bool { return e.res.ClusterCarbonKg != nil },
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.ClusterCarbonKg },
			func(e *Engine) []float64 { return e.res.ClusterCarbonKg }),
		storageLedgerSection("storage total ledgers",
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.StorageBoughtKWh },
			func(s storage.Snapshot) float64 { return s.BoughtKWh }),
		storageLedgerSection("storage served ledgers",
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.StorageServedKWh },
			func(s storage.Snapshot) float64 { return s.ServedKWh }),
		newSection("batch queues", func(e *Engine) bool { return e.sched != nil },
			func(cp *Checkpoint) *[]sched.QueueState { return &cp.BatchQueues },
			func(e *Engine) []sched.QueueState { return e.sched.State() },
			func(e *Engine, cp *Checkpoint, v []sched.QueueState) error {
				return e.sched.RestoreState(v, cp.StepsRun)
			},
			func(q sched.QueueState) sched.QueueState {
				return sched.QueueState{Jobs: append([]sched.QueuedJob(nil), q.Jobs...)}
			}),
		vectorSection("batch served ledgers", func(e *Engine) bool { return e.batchServed != nil },
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.BatchServedKWh },
			func(e *Engine) []float64 { return e.batchServed }),
		vectorSection("batch shed ledgers", func(e *Engine) bool { return e.batchShed != nil },
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.BatchShedKWh },
			func(e *Engine) []float64 { return e.batchShed }),
		vectorSection("batch deferral ledgers", func(e *Engine) bool { return e.batchDeferred != nil },
			func(cp *Checkpoint) *[]float64 { return &cp.Totals.BatchDeferredKWh },
			func(e *Engine) []float64 { return e.batchDeferred }),
	}
}

// WorldHash returns a SHA-256 digest ("sha256:…") over everything that
// defines the engine's world and billing contract: the fleet geometry, the
// full per-cluster price series (so two different market seeds can never
// be confused), the routing policy, the reaction delay, soft caps, storage
// configuration, carbon/decision series, and the demand-charge tariff.
// Computed once per engine and cached; the step hot path never touches it.
func (e *Engine) WorldHash() string {
	if e.worldHash == "" {
		e.worldHash = worldHash(&e.sc, e.prices)
	}
	return e.worldHash
}

func worldHash(sc *Scenario, prices []*timeseries.Series) string {
	h := sha256.New()
	fmt.Fprintf(h, "powerroute-world v1\npolicy=%s\nstart=%d step=%d steps=%d delay=%d demand_charge=%x\nenergy=%+v\n",
		sc.Policy.Name(), sc.Start.UnixNano(), int64(sc.Step), sc.Steps,
		int64(sc.ReactionDelay), math.Float64bits(sc.DemandChargePerKW), sc.Energy)
	for _, cl := range sc.Fleet.Clusters {
		fmt.Fprintf(h, "cluster %s hub=%s servers=%d capacity=%x\n",
			cl.Code, cl.HubID, cl.Servers, math.Float64bits(float64(cl.Capacity)))
	}
	for _, st := range sc.Fleet.States {
		fmt.Fprintf(h, "state %s\n", st.Code)
	}
	if sc.SoftCaps != nil {
		fmt.Fprint(h, "softcaps")
		for _, v := range sc.SoftCaps {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
	if sc.Storage != nil {
		fmt.Fprintf(h, "storage policy=%s routing_aware=%v\n", sc.Storage.Policy.Name(), sc.Storage.RoutingAware)
		for _, b := range sc.Storage.Batteries {
			fmt.Fprintf(h, "battery %x %x %x %x %x\n",
				math.Float64bits(b.CapacityKWh), math.Float64bits(b.MaxChargeKW),
				math.Float64bits(b.MaxDischargeKW), math.Float64bits(b.RoundTripEfficiency),
				math.Float64bits(b.InitialSoC))
		}
	}
	if sc.Batch != nil {
		fmt.Fprintf(h, "batch peak_guard=%v migrate=%v\nbatch_max_kw", sc.Batch.PeakGuard, sc.Batch.Migrate)
		for _, v := range sc.Batch.MaxBatchKW {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprint(h, "\nbatch_thresholds")
		for _, v := range sc.Batch.Thresholds {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(h)
		for _, j := range sc.Batch.Jobs {
			fmt.Fprintf(h, "batch_job %d %d %d %x %x\n",
				j.Cluster, j.Arrival, j.Deadline,
				math.Float64bits(j.EnergyKWh), math.Float64bits(j.MinFraction))
		}
	}
	// Each series streams through one small buffer, as the little-endian
	// bytes binary.Write would give, without copying it whole.
	buf := make([]byte, 0, 4096)
	hashSeries := func(label string, series []*timeseries.Series) {
		for i, s := range series {
			fmt.Fprintf(h, "%s %d start=%d step=%d n=%d\n", label, i, s.Start.UnixNano(), int64(s.Step), len(s.Values))
			for v := range slices.Chunk(s.Values, cap(buf)/8) {
				h.Write(appendFloats(buf[:0], v))
			}
		}
	}
	hashSeries("rt", prices)
	if sc.DecisionSeries != nil {
		hashSeries("decision", sc.DecisionSeries)
	}
	if sc.Carbon != nil {
		hashSeries("carbon", sc.Carbon)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// --- wire format -----------------------------------------------------------

// checkpointEnvelope is the JSON line after the magic: the checkpoint's
// own JSON fields plus the payload's section lengths and digest. Numeric
// bulk lives in the binary payload that follows.
type checkpointEnvelope struct {
	Checkpoint

	// Payload layout: HistBytes[c] bytes of histogram blob per cluster in
	// fleet order, then MeterSamples[c] float64s per cluster, then
	// Clusters last-interval rates, then the States×Clusters assignment
	// matrix row-major — all little-endian.
	HistBytes     []int  `json:"hist_bytes"`
	MeterSamples  []int  `json:"meter_samples"`
	PayloadBytes  int64  `json:"payload_bytes"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// Encode writes the checkpoint: the magic line, the JSON envelope line,
// then the binary payload.
func (cp *Checkpoint) Encode(w io.Writer) error {
	env := checkpointEnvelope{
		Checkpoint:   *cp,
		HistBytes:    make([]int, len(cp.DistHists)),
		MeterSamples: make([]int, len(cp.MeterSamples)),
	}
	histBlobs := make([][]byte, len(cp.DistHists))
	var histTotal int
	for c, h := range cp.DistHists {
		blob, err := h.MarshalBinary()
		if err != nil {
			return fmt.Errorf("sim: encoding cluster %d distance histogram: %w", c, err)
		}
		histBlobs[c] = blob
		env.HistBytes[c] = len(blob)
		histTotal += len(blob)
	}
	var sampleTotal int
	for c, samples := range cp.MeterSamples {
		env.MeterSamples[c] = len(samples)
		sampleTotal += len(samples)
	}
	payload := make([]byte, 0, histTotal+8*(sampleTotal+len(cp.Loads)+cp.States*cp.Clusters))
	for _, blob := range histBlobs {
		payload = append(payload, blob...)
	}
	for _, samples := range cp.MeterSamples {
		payload = appendFloats(payload, samples)
	}
	payload = appendFloats(payload, cp.Loads)
	for _, row := range cp.Assign {
		payload = appendFloats(payload, row)
	}
	digest := sha256.Sum256(payload)
	env.PayloadBytes = int64(len(payload))
	env.PayloadSHA256 = hex.EncodeToString(digest[:])
	envJSON, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("sim: encoding checkpoint envelope: %w", err)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%s\n%s\n", checkpointMagic, envJSON); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

func appendFloats(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// DecodeCheckpoint parses one encoded checkpoint. Every failure mode is
// loud and specific: wrong magic, unsupported version, malformed envelope,
// declared/actual payload length mismatch (truncated file), digest
// mismatch (corruption), trailing bytes, a NaN or ±Inf meter sample,
// last-interval load or assignment cell (no engine produces one), or a
// checkpoint whose sections disagree with its own geometry (checkShape).
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint magic: %w", err)
	}
	magic = strings.TrimSuffix(magic, "\n")
	if magic != checkpointMagic {
		if strings.HasPrefix(magic, checkpointMagicPrefix) {
			return nil, fmt.Errorf("sim: unsupported checkpoint format %q (this build reads %q)", magic, checkpointMagic)
		}
		return nil, errors.New("sim: not a powerroute checkpoint")
	}
	envLine, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint envelope: %w", err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal([]byte(envLine), &env); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint envelope: %w", err)
	}
	cp := &env.Checkpoint
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, this build reads v%d", cp.Version, CheckpointVersion)
	}
	if cp.Clusters <= 0 || cp.Clusters > 1<<20 || cp.States <= 0 || cp.States > 1<<20 {
		return nil, fmt.Errorf("sim: checkpoint geometry %d clusters × %d states out of range", cp.Clusters, cp.States)
	}
	if len(env.MeterSamples) != cp.Clusters {
		return nil, fmt.Errorf("sim: %d meter sample counts for %d clusters", len(env.MeterSamples), cp.Clusters)
	}
	if len(env.HistBytes) != cp.Clusters {
		return nil, fmt.Errorf("sim: %d histogram lengths for %d clusters", len(env.HistBytes), cp.Clusters)
	}
	var histTotal int64
	for c, n := range env.HistBytes {
		// Per-length bound before summing, same overflow guard as the
		// meter sample counts below.
		if n < 0 || n > maxCheckpointPayload {
			return nil, fmt.Errorf("sim: cluster %d histogram length %d out of range", c, n)
		}
		histTotal += int64(n)
	}
	if histTotal > maxCheckpointPayload {
		return nil, fmt.Errorf("sim: %d total histogram bytes exceed the payload cap", histTotal)
	}
	var sampleTotal int64
	for c, n := range env.MeterSamples {
		// Per-count bound before summing: without it a pair of huge counts
		// overflows sampleTotal and the consistency check below compares
		// wrapped garbage, letting a crafted envelope drive the section
		// parser into an absurd allocation instead of an error.
		if n < 0 || n > maxCheckpointPayload/8 {
			return nil, fmt.Errorf("sim: cluster %d declares %d meter samples", c, n)
		}
		sampleTotal += int64(n)
	}
	if sampleTotal > maxCheckpointPayload/8 {
		return nil, fmt.Errorf("sim: %d total meter samples exceed the payload cap", sampleTotal)
	}
	want := histTotal + 8*(sampleTotal+int64(cp.Clusters)+int64(cp.States)*int64(cp.Clusters))
	if env.PayloadBytes != want {
		return nil, fmt.Errorf("sim: declared payload %d bytes, sections sum to %d", env.PayloadBytes, want)
	}
	if env.PayloadBytes > maxCheckpointPayload {
		return nil, fmt.Errorf("sim: payload %d bytes exceeds the %d-byte cap", env.PayloadBytes, maxCheckpointPayload)
	}

	// Read the payload through a limit so a truncated file surfaces as a
	// short read (memory use tracks the bytes actually present).
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(br, env.PayloadBytes))
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint payload: %w", err)
	}
	if n != env.PayloadBytes {
		return nil, fmt.Errorf("sim: checkpoint truncated: payload has %d of %d declared bytes", n, env.PayloadBytes)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errors.New("sim: trailing bytes after checkpoint payload")
	}
	payload := buf.Bytes()
	digest := sha256.Sum256(payload)
	if got := hex.EncodeToString(digest[:]); got != strings.ToLower(env.PayloadSHA256) {
		return nil, fmt.Errorf("sim: checkpoint payload digest %s does not match declared %s (corrupt file)", got, env.PayloadSHA256)
	}

	// Go's time parser accepts a +24:00 zone offset that its encoder
	// refuses, so a decoded time keeps only its instant, in UTC: a
	// checkpoint that decodes always re-encodes.
	cp.Start, cp.LastAt = cp.Start.UTC(), cp.LastAt.UTC()
	// The envelope's optional fields use omitempty, so an empty slice in a
	// hand-crafted file would not survive a re-encode; normalize to nil
	// (absent) so decode(encode(decode(x))) is a fixed point.
	if len(cp.ClusterIndex) == 0 {
		cp.ClusterIndex = nil
	}
	if len(cp.StateIndex) == 0 {
		cp.StateIndex = nil
	}
	// Optional sections likewise: absent when empty, and every value in
	// the form its section's clone gives it.
	sections := checkpointSections()
	for _, sec := range sections {
		if sec.kept != nil {
			sec.canonical(cp)
		}
	}
	off := 0
	take := func(n int) []byte {
		b := payload[off : off+n]
		off += n
		return b
	}
	cp.DistHists = make([]*stats.WeightedHistogram, cp.Clusters)
	for c := range cp.DistHists {
		cp.DistHists[c] = new(stats.WeightedHistogram)
		if err := cp.DistHists[c].UnmarshalBinary(take(env.HistBytes[c])); err != nil {
			return nil, fmt.Errorf("sim: decoding cluster %d distance histogram: %w", c, err)
		}
	}
	cp.MeterSamples = make([][]float64, cp.Clusters)
	for c, cnt := range env.MeterSamples {
		if cp.MeterSamples[c], err = readFloats(take(8*cnt), cnt); err != nil {
			return nil, fmt.Errorf("sim: cluster %d meter sample %w", c, err)
		}
	}
	if cp.Loads, err = readFloats(take(8*cp.Clusters), cp.Clusters); err != nil {
		return nil, fmt.Errorf("sim: last-interval load of cluster %w", err)
	}
	cp.Assign = make([][]float64, cp.States)
	for s := range cp.Assign {
		if cp.Assign[s], err = readFloats(take(8*cp.Clusters), cp.Clusters); err != nil {
			return nil, fmt.Errorf("sim: assignment of state %d to cluster %w", s, err)
		}
	}
	if err := cp.checkShape(sections); err != nil {
		return nil, fmt.Errorf("sim: checkpoint has %w", err)
	}
	return cp, nil
}

// readFloats decodes n little-endian float64s, refusing the first NaN or
// ±Inf with an error that reads "<index> is <value>".
func readFloats(b []byte, n int) ([]float64, error) {
	if n == 0 {
		// A zero-step meter serializes as nil; keep decode(encode(x)) == x.
		return nil, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if math.IsNaN(out[i]) || math.IsInf(out[i], 0) {
			return nil, fmt.Errorf("%d is %v", i, out[i])
		}
	}
	return out, nil
}

// WriteCheckpointFile encodes cp to path atomically: the bytes land in a
// temp file in the same directory, are synced, and replace path with one
// rename — a crash mid-write can never leave a half-written checkpoint
// under the real name.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("sim: checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := cp.Encode(f); err != nil {
		return fmt.Errorf("sim: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sim: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sim: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sim: publishing checkpoint: %w", err)
	}
	tmp = "" // renamed away; nothing to clean up
	return nil
}

// ReadCheckpointFile decodes the checkpoint at path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
