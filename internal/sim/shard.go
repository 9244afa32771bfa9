// Multi-region sharding: split one simulated world into per-region
// sub-scenarios — one per electricity market region, the paper's natural
// deployment unit — run each on its own engine (its own powerrouted
// instance), and merge their checkpoints back into the joint world's.
//
// The split is exact, not approximate. A partition is *routing-closed*
// when every client state's candidate clusters live in the state's own
// shard; then the joint run's allocations decompose perfectly — states in
// shard A never consume room on shard B's clusters — and because the
// engine accumulates every running sum per cluster (see Totals), the
// merged checkpoint reproduces the single-engine run bit for bit, final
// bill included. PartitionByRouting computes the finest routing-closed
// partition (connected components of the policy's candidate sets);
// Scenario.Shard validates closure and carves the sub-scenarios;
// MergeCheckpoints recombines shard checkpoints under the parent world
// hash each shard was stamped with.
package sim

import (
	"errors"
	"fmt"
	"time"

	"powerroute/internal/routing"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
)

// ShardPartition assigns every cluster and every client state of a fleet
// to exactly one shard. Clusters[i] and States[i] are shard i's members as
// strictly increasing fleet indices (preserving fleet order keeps the
// allocation loops deterministic across the split).
type ShardPartition struct {
	Clusters [][]int // per shard: member clusters as ascending fleet indices
	States   [][]int // per shard: member client states as ascending fleet indices
}

// Shards returns the number of shards in the partition.
func (p *ShardPartition) Shards() int { return len(p.Clusters) }

// PartitionByRouting computes the finest routing-closed partition of the
// fleet under the policy: the connected components of the policy's
// candidate sets (two clusters share a component when some state considers
// both), with each state assigned to its candidates' component. Coarser
// groupings of these components are also routing-closed; anything finer is
// not. The component count depends on the policy's reach — the paper's
// 1500 km optimizer spans the whole map (one component), while tighter
// thresholds split the coasts from Texas.
func PartitionByRouting(pol routing.Sharder, f interface {
	ClusterCount() int
	StateCount() int
}) (ShardPartition, error) {
	nc, ns := f.ClusterCount(), f.StateCount()
	parent := make([]int, nc)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for s := 0; s < ns; s++ {
		cands := pol.Candidates(s)
		if len(cands) == 0 {
			return ShardPartition{}, fmt.Errorf("sim: state %d has no candidate clusters", s)
		}
		for _, c := range cands[1:] {
			parent[find(c)] = find(cands[0])
		}
	}
	// Shards ordered by their smallest cluster index, members ascending.
	byRoot := map[int]int{}
	var p ShardPartition
	for c := 0; c < nc; c++ {
		root := find(c)
		i, ok := byRoot[root]
		if !ok {
			i = len(p.Clusters)
			byRoot[root] = i
			p.Clusters = append(p.Clusters, nil)
			p.States = append(p.States, nil)
		}
		p.Clusters[i] = append(p.Clusters[i], c)
	}
	for s := 0; s < ns; s++ {
		i := byRoot[find(pol.Candidates(s)[0])]
		p.States[i] = append(p.States[i], s)
	}
	for i, states := range p.States {
		if len(states) == 0 {
			return ShardPartition{}, fmt.Errorf("sim: shard %d (clusters %v) serves no states", i, p.Clusters[i])
		}
	}
	return p, nil
}

// WorldHash returns the scenario's world identity digest — the same value
// an engine built from it reports. Scenario.Shard stamps it into every
// sub-scenario as the parent hash, and the shard coordinator uses it to
// verify shards against the joint world without building an engine.
func (sc Scenario) WorldHash() (string, error) {
	if err := sc.validate(); err != nil {
		return "", err
	}
	prices, err := sc.clusterPrices()
	if err != nil {
		return "", err
	}
	return worldHash(&sc, prices), nil
}

// Shard splits the scenario into one sub-scenario per partition shard:
// the shard's clusters as a sub-fleet, its states' demand, and every
// per-cluster configuration (soft caps, decision/carbon series, batteries)
// sliced to match. The routing policy must implement routing.Sharder and
// the partition must be routing-closed under it — every state's candidate
// clusters in the state's own shard — which is what makes the union of the
// shard runs reproduce the joint run exactly (see MergeCheckpoints).
//
// The engine's one fleet-wide coupling — the 95/5 burst gate's
// demand-vs-room comparison — no longer limits the split: a shard run
// whose BurstGate replays the joint gate bits (a LeaseStore set from the
// bit the coordinator sends with each demand row) reproduces the joint soft-capped run
// exactly even while bursts fire, because burst *budgets* are
// per-cluster and therefore shard-local. Set each sub-scenario's
// BurstGate after Shard returns; Shard itself leaves the field as
// inherited. One caveat remains: when a whole region saturates, the
// optimizer's outward overflow walk reaches beyond the shard's clusters
// in the joint run but cannot in the shard run — saturation shows up as
// overload in both, but the placements then differ.
func (sc Scenario) Shard(p ShardPartition) ([]Scenario, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.shardOf != "" {
		return nil, errors.New("sim: scenario is already a shard")
	}
	if len(p.Clusters) == 0 || len(p.Clusters) != len(p.States) {
		return nil, fmt.Errorf("sim: partition has %d cluster groups and %d state groups", len(p.Clusters), len(p.States))
	}
	pol, ok := sc.Policy.(routing.Sharder)
	if !ok {
		return nil, fmt.Errorf("sim: policy %s is not shardable", sc.Policy.Name())
	}
	nc, ns := len(sc.Fleet.Clusters), len(sc.Fleet.States)
	clusterShard := make([]int, nc)
	stateShard := make([]int, ns)
	if err := assignOnce(p.Clusters, clusterShard, "cluster"); err != nil {
		return nil, err
	}
	if err := assignOnce(p.States, stateShard, "state"); err != nil {
		return nil, err
	}
	for s := 0; s < ns; s++ {
		for _, c := range pol.Candidates(s) {
			if c < 0 || c >= nc {
				return nil, fmt.Errorf("sim: state %d candidate %d out of range", s, c)
			}
			if clusterShard[c] != stateShard[s] {
				return nil, fmt.Errorf("sim: partition is not routing-closed: state %s (shard %d) considers cluster %s (shard %d)",
					sc.Fleet.States[s].Code, stateShard[s], sc.Fleet.Clusters[c].Code, clusterShard[c])
			}
		}
	}
	parentHash, err := sc.WorldHash()
	if err != nil {
		return nil, err
	}

	subs := make([]Scenario, len(p.Clusters))
	for i := range p.Clusters {
		clusters, states := p.Clusters[i], p.States[i]
		subFleet, err := sc.Fleet.Subfleet(clusters, states)
		if err != nil {
			return nil, fmt.Errorf("sim: shard %d: %w", i, err)
		}
		subPolicy, err := pol.ShardPolicy(subFleet)
		if err != nil {
			return nil, fmt.Errorf("sim: shard %d policy: %w", i, err)
		}
		sub := sc
		sub.Fleet = subFleet
		sub.Policy = subPolicy
		sub.Demand = &subsetDemand{src: sc.Demand, idx: states}
		if sc.SoftCaps != nil {
			sub.SoftCaps = pickFloats(sc.SoftCaps, clusters)
		}
		if sc.DecisionSeries != nil {
			sub.DecisionSeries = pickSeries(sc.DecisionSeries, clusters)
		}
		if sc.Carbon != nil {
			sub.Carbon = pickSeries(sc.Carbon, clusters)
		}
		if sc.Storage != nil {
			cfg := *sc.Storage
			cfg.Batteries = make([]storage.Battery, len(clusters))
			for j, c := range clusters {
				cfg.Batteries[j] = sc.Storage.Batteries[c]
			}
			cfg.Policy = wrapStoragePolicy(sc.Storage.Policy, clusters)
			sub.Storage = &cfg
		}
		if sc.Batch != nil {
			cfg := *sc.Batch
			cfg.MaxBatchKW = pickFloats(sc.Batch.MaxBatchKW, clusters)
			cfg.Thresholds = pickFloats(sc.Batch.Thresholds, clusters)
			// Keep each job with its home cluster, remapped to the shard's
			// local index; arrival order is preserved. Routing closure
			// guarantees the job's whole migration component came along.
			local := make(map[int]int, len(clusters))
			for j, c := range clusters {
				local[c] = j
			}
			cfg.Jobs = nil
			for _, job := range sc.Batch.Jobs {
				if j, ok := local[job.Cluster]; ok {
					job.Cluster = j
					cfg.Jobs = append(cfg.Jobs, job)
				}
			}
			sub.Batch = &cfg
		}
		sub.shardOf = parentHash
		sub.shardClusters = append([]int(nil), clusters...)
		sub.shardStates = append([]int(nil), states...)
		subs[i] = sub
	}
	return subs, nil
}

// assignOnce records each index's shard in dst, requiring every index to
// appear exactly once across the groups.
func assignOnce(groups [][]int, dst []int, kind string) error {
	for i := range dst {
		dst[i] = -1
	}
	for shard, members := range groups {
		for _, idx := range members {
			if idx < 0 || idx >= len(dst) {
				return fmt.Errorf("sim: partition %s index %d out of range", kind, idx)
			}
			if dst[idx] != -1 {
				return fmt.Errorf("sim: partition assigns %s %d to shards %d and %d", kind, idx, dst[idx], shard)
			}
			dst[idx] = shard
		}
	}
	for idx, shard := range dst {
		if shard == -1 {
			return fmt.Errorf("sim: partition leaves %s %d unassigned", kind, idx)
		}
	}
	return nil
}

func pickFloats(src []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

func pickSeries(src []*timeseries.Series, idx []int) []*timeseries.Series {
	out := make([]*timeseries.Series, len(idx))
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// subsetDemand projects a full-fleet demand source onto a shard's states.
// Like other DemandSources it is not safe for concurrent use; each shard
// engine owns its own wrapper (the scratch buffer is per-instance).
type subsetDemand struct {
	src     DemandSource
	idx     []int
	scratch []float64
}

// Rates implements DemandSource.
func (d *subsetDemand) Rates(at time.Time, dst []float64) []float64 {
	d.scratch = d.src.Rates(at, d.scratch)
	if len(dst) != len(d.idx) {
		dst = make([]float64, len(d.idx))
	}
	for i, s := range d.idx {
		dst[i] = d.scratch[s]
	}
	return dst
}

// shardStoragePolicy translates a shard's local cluster indices to parent
// fleet indices before consulting the parent dispatch policy, so
// per-cluster dispatch state (e.g. percentile thresholds derived from each
// hub's own price history) follows the cluster into its shard.
type shardStoragePolicy struct {
	inner storage.Policy
	idx   []int
}

// Name implements storage.Policy.
func (p *shardStoragePolicy) Name() string { return p.inner.Name() }

// Action implements storage.Policy.
func (p *shardStoragePolicy) Action(c int, price, itLoadKW float64, s *storage.State) float64 {
	return p.inner.Action(p.idx[c], price, itLoadKW, s)
}

// ClusterCount sizes the wrapper to its shard for storage.Config.Validate.
func (p *shardStoragePolicy) ClusterCount() int { return len(p.idx) }

// shardStorageCapper additionally forwards the price-cap signal for
// routing-aware dispatch policies.
type shardStorageCapper struct {
	shardStoragePolicy
	capper storage.PriceCapper
}

// PriceCap implements storage.PriceCapper.
func (p *shardStorageCapper) PriceCap(c int, s *storage.State) float64 {
	return p.capper.PriceCap(p.idx[c], s)
}

// wrapStoragePolicy builds the index-translating wrapper, preserving the
// PriceCapper capability exactly when the parent policy has it (the engine
// only looks for the interface, so a wrapper must not invent it).
func wrapStoragePolicy(inner storage.Policy, idx []int) storage.Policy {
	base := shardStoragePolicy{inner: inner, idx: idx}
	if pc, ok := inner.(storage.PriceCapper); ok {
		return &shardStorageCapper{shardStoragePolicy: base, capper: pc}
	}
	return &base
}

// ErrShardCursorMismatch marks a merge attempted while the shards were
// not paused at one step cursor — the transient state of a fleet that is
// mid-ingest, not a topology error. Coordinators match it with errors.Is
// to retry instead of alarming.
var ErrShardCursorMismatch = errors.New("shards must pause at the same cursor")

// MergeCheckpoints recombines one checkpoint per shard into the joint
// world's checkpoint. Every part must be a shard checkpoint of the same
// parent world (identical ShardOf hash — the shard-compatibility guard),
// at the same step cursor, with disjoint cluster and state positions that
// together cover the parent fleet exactly. Per-structure combine rules:
// every per-cluster section of checkpointSections (meter samples, burst
// budgets, burst lease ledgers, monthly demand peaks, battery snapshots,
// batch queues, running cost/energy/overload/storage/carbon/batch sums,
// last-interval rates, distance histograms) scatters into its fleet
// position — disjoint across shards, so no arithmetic happens at all —
// and the assignment matrix scatters by state row and cluster column.
// Value checks are Restore's: each section checks its own as it loads. Distance histograms
// being per-cluster (routing closure sends a cluster the same hits in
// the same order either way) is what makes the merged histograms, and
// the fleet mean/p99 folded from them, bit-exact rather than merely
// close. The merged checkpoint carries the parent
// world hash and restores only into the joint world, where Snapshot and
// Finalize re-derive every fleet-wide figure in fleet order — bit for bit
// what the single-engine run reports.
func MergeCheckpoints(parts []*Checkpoint) (*Checkpoint, error) {
	if len(parts) == 0 {
		return nil, errors.New("sim: merging zero checkpoints")
	}
	first := parts[0]
	if first == nil {
		return nil, errors.New("sim: merging nil checkpoint")
	}
	if first.ShardOf == "" {
		return nil, errors.New("sim: checkpoint 0 is not a shard checkpoint (no parent world hash)")
	}
	sections := checkpointSections()
	nc, ns := 0, 0
	for i, cp := range parts {
		if cp == nil {
			return nil, fmt.Errorf("sim: merging nil checkpoint %d", i)
		}
		if cp.Version != CheckpointVersion {
			return nil, fmt.Errorf("sim: checkpoint %d is v%d, this build merges v%d", i, cp.Version, CheckpointVersion)
		}
		if cp.ShardOf != first.ShardOf {
			return nil, fmt.Errorf("sim: checkpoint %d is a shard of world %s, checkpoint 0 of %s", i, cp.ShardOf, first.ShardOf)
		}
		if cp.Policy != first.Policy {
			return nil, fmt.Errorf("sim: checkpoint %d ran policy %q, checkpoint 0 ran %q", i, cp.Policy, first.Policy)
		}
		if !cp.Start.Equal(first.Start) || cp.Step != first.Step || cp.ScenarioSteps != first.ScenarioSteps {
			return nil, fmt.Errorf("sim: checkpoint %d horizon (start %v, step %v, %d steps) differs from checkpoint 0's (start %v, step %v, %d steps)",
				i, cp.Start, cp.Step, cp.ScenarioSteps, first.Start, first.Step, first.ScenarioSteps)
		}
		if cp.StepsRun != first.StepsRun || !cp.LastAt.Equal(first.LastAt) {
			return nil, fmt.Errorf("sim: checkpoint %d at step %d (%v), checkpoint 0 at %d (%v): %w",
				i, cp.StepsRun, cp.LastAt, first.StepsRun, first.LastAt, ErrShardCursorMismatch)
		}
		if len(cp.ClusterIndex) != cp.Clusters || len(cp.StateIndex) != cp.States ||
			len(cp.ClusterCodes) != cp.Clusters || len(cp.StateCodes) != cp.States {
			return nil, fmt.Errorf("sim: checkpoint %d shard identity covers %d/%d clusters and %d/%d states",
				i, len(cp.ClusterIndex), cp.Clusters, len(cp.StateIndex), cp.States)
		}
		for _, sec := range sections {
			if sec.kept != nil && (sec.size(cp) > 0) != (sec.size(first) > 0) {
				return nil, fmt.Errorf("sim: checkpoint %d carries %s but checkpoint 0 does not (or vice versa)", i, sec.name)
			}
		}
		if err := checkShardVectors(cp, sections); err != nil {
			return nil, fmt.Errorf("sim: checkpoint %d: %w", i, err)
		}
		nc += cp.Clusters
		ns += cp.States
	}

	m := &Checkpoint{
		Version:       CheckpointVersion,
		WorldHash:     first.ShardOf,
		Policy:        first.Policy,
		Start:         first.Start,
		Step:          first.Step,
		ScenarioSteps: first.ScenarioSteps,
		Clusters:      nc,
		States:        ns,
		ClusterCodes:  make([]string, nc),
		StateCodes:    make([]string, ns),
		StepsRun:      first.StepsRun,
		LastAt:        first.LastAt,
		Assign:        make([][]float64, ns),
	}
	var carried []checkpointSection
	for _, sec := range sections {
		if sec.kept == nil || sec.size(first) > 0 {
			sec.alloc(m, nc)
			carried = append(carried, sec)
		}
	}

	seenCluster := make([]bool, nc)
	seenState := make([]bool, ns)
	for i, cp := range parts {
		for j, c := range cp.ClusterIndex {
			if c < 0 || c >= nc || seenCluster[c] {
				return nil, fmt.Errorf("sim: checkpoint %d cluster position %d out of range or duplicated (the parts must cover the parent fleet exactly)", i, c)
			}
			seenCluster[c] = true
			m.ClusterCodes[c] = cp.ClusterCodes[j]
			for _, sec := range carried {
				sec.scatter(m, c, cp, j)
			}
		}
		for sj, s := range cp.StateIndex {
			if s < 0 || s >= ns || seenState[s] {
				return nil, fmt.Errorf("sim: checkpoint %d state position %d out of range or duplicated across shards", i, s)
			}
			seenState[s] = true
			m.StateCodes[s] = cp.StateCodes[sj]
			row := make([]float64, nc)
			for j, c := range cp.ClusterIndex {
				row[c] = cp.Assign[sj][j]
			}
			m.Assign[s] = row
		}
	}
	return m, nil
}

// checkShardVectors verifies a shard checkpoint's per-cluster sections
// and assignment matrix match its declared geometry before the merge
// indexes into them: sections every engine keeps hold one value per
// cluster, optional ones either that or none.
func checkShardVectors(cp *Checkpoint, sections []checkpointSection) error {
	nc, ns := cp.Clusters, cp.States
	for _, sec := range sections {
		if n := sec.size(cp); n != nc && (sec.kept == nil || n != 0) {
			return fmt.Errorf("%d %s for %d clusters", n, sec.name, nc)
		}
	}
	if len(cp.Assign) != ns {
		return fmt.Errorf("assignment matrix has %d rows for %d states", len(cp.Assign), ns)
	}
	for s, row := range cp.Assign {
		if len(row) != nc {
			return fmt.Errorf("assignment row %d has %d clusters, want %d", s, len(row), nc)
		}
	}
	return nil
}
