package sim

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"powerroute/internal/billing"
	"powerroute/internal/storage"
	"powerroute/internal/units"
)

// These are regression tests for the section validators' error ordering:
// they used to range over a map[string]int, so a checkpoint with several
// wrong-sized sections blamed a random one per process. The validators
// now walk a fixed slice; with many sections wrong at once, the error
// text must be byte-identical on every attempt.

func TestRestoreSectionErrorTextStable(t *testing.T) {
	sc := engineScenarios(t)["optimizer"]
	_, cp := checkpointAt(t, clonePolicy(t, sc), 10)
	want := fmt.Sprintf("sim: restore: checkpoint has %d cluster costs for %d clusters", cp.Clusters+1, cp.Clusters)
	for i := 0; i < 20; i++ {
		bad := *cp
		bad.Totals.ClusterCost = make([]units.Money, cp.Clusters+1)
		bad.Totals.ClusterEnergy = make([]units.Energy, cp.Clusters+1)
		bad.Totals.PeakRate = make([]float64, cp.Clusters+1)
		bad.Loads = make([]float64, cp.Clusters+1)
		_, err := Restore(clonePolicy(t, sc), &bad)
		if err == nil || err.Error() != want {
			t.Fatalf("attempt %d: error = %v, want %q", i, err, want)
		}
	}
}

func TestMergeSectionErrorTextStable(t *testing.T) {
	sc := longRunScenario(t, 600)
	engines, _ := shardEngines(t, sc, 8)
	if len(engines) < 2 {
		t.Fatalf("scenario split into %d shards, need at least 2", len(engines))
	}
	parts := make([]*Checkpoint, len(engines))
	for i, eng := range engines {
		cp, err := eng.Checkpoint()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		parts[i] = cp
	}

	// Several mandatory per-cluster vectors wrong at once: the first
	// section in declaration order takes the blame, every time.
	want := fmt.Sprintf("sim: checkpoint 1: %d cluster costs for %d clusters", parts[1].Clusters+1, parts[1].Clusters)
	for i := 0; i < 20; i++ {
		bad := append([]*Checkpoint(nil), parts...)
		b := *parts[1]
		b.Totals.ClusterCost = make([]units.Money, b.Clusters+1)
		b.Totals.ClusterEnergy = make([]units.Energy, b.Clusters+1)
		b.Loads = make([]float64, b.Clusters+1)
		bad[1] = &b
		_, err := MergeCheckpoints(bad)
		if err == nil || err.Error() != want {
			t.Fatalf("attempt %d: error = %v, want %q", i, err, want)
		}
	}

	// Several optional sections diverging at once: same rule.
	want = "sim: checkpoint 1 carries 95/5 constraint state but checkpoint 0 does not (or vice versa)"
	for i := 0; i < 20; i++ {
		bad := append([]*Checkpoint(nil), parts...)
		b := *parts[1]
		b.Constraints = make([]billing.ConstraintState, b.Clusters)
		b.Batteries = make([]storage.Snapshot, b.Clusters)
		bad[1] = &b
		_, err := MergeCheckpoints(bad)
		if err == nil || err.Error() != want {
			t.Fatalf("attempt %d: error = %v, want %q", i, err, want)
		}
	}
}

// TestCheckpointSectionsRejectByName walks every per-cluster section of a
// checkpoint that carries all of them. Restore must refuse the section
// one cluster too long and, for an optional section, absent; so must a
// 3-shard merge whose part 1 does the same. Each error names the section.
// An absent optional section leaves the world hash intact, so only the
// section check can catch it.
func TestCheckpointSectionsRejectByName(t *testing.T) {
	want := []string{
		"cluster costs", "cluster energies", "peak rates", "utilization sums",
		"overload ledgers", "meter sample lists", "last-interval rates", "distance histograms",
		"95/5 constraint state", "burst lease ledgers", "battery snapshots", "demand meters",
		"carbon ledgers", "storage total ledgers", "storage served ledgers",
		"batch queues", "batch served ledgers", "batch shed ledgers", "batch deferral ledgers",
	}
	sections := checkpointSections()
	var names []string
	for _, sec := range sections {
		names = append(names, sec.name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("section table names\n%q\nwant\n%q", names, want)
	}

	sc := everySectionScenario(t, 600, 3*24)
	sc.BurstGate = SelfGate{}
	const at = 30
	eng, err := NewEngine(clonePolicy(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, eng, sc, at)
	whole := encodedCheckpoint(t, eng)
	engines, subs := shardEngines(t, clonePolicy(t, sc), at)
	if len(subs) != 3 {
		t.Fatalf("600 km split has %d shards, want 3", len(subs))
	}
	parts := make([][]byte, len(engines))
	for i, eng := range engines {
		parts[i] = encodedCheckpoint(t, eng)
	}
	decoded := func(b []byte) *Checkpoint {
		t.Helper()
		cp, err := DecodeCheckpoint(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	mergeWith := func(part1 *Checkpoint) error {
		cps := make([]*Checkpoint, len(parts))
		for i, b := range parts {
			cps[i] = decoded(b)
		}
		cps[1] = part1
		_, err := MergeCheckpoints(cps)
		return err
	}
	// The pristine checkpoints restore and merge, and carry every section.
	cp := decoded(whole)
	for _, sec := range sections {
		if sec.size(cp) != cp.Clusters {
			t.Fatalf("scenario does not keep %s", sec.name)
		}
	}
	if _, err := Restore(clonePolicy(t, sc), cp); err != nil {
		t.Fatal(err)
	}
	if err := mergeWith(decoded(parts[1])); err != nil {
		t.Fatal(err)
	}

	requireNamed := func(label string, sec checkpointSection, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), sec.name) {
			t.Errorf("%s with %s: error %v does not name the section", label, sec.name, err)
		}
	}
	for _, sec := range sections {
		long := decoded(whole)
		sec.alloc(long, long.Clusters+1)
		_, err := Restore(clonePolicy(t, sc), long)
		requireNamed("restore, one cluster too long", sec, err)

		longPart := decoded(parts[1])
		sec.alloc(longPart, longPart.Clusters+1)
		requireNamed("merge, part 1 one cluster too long", sec, mergeWith(longPart))

		if sec.kept == nil {
			continue
		}
		absent := decoded(whole)
		sec.alloc(absent, 0)
		sec.canonical(absent)
		_, err = Restore(clonePolicy(t, sc), absent)
		requireNamed("restore, section nil", sec, err)

		absentPart := decoded(parts[1])
		sec.alloc(absentPart, 0)
		sec.canonical(absentPart)
		requireNamed("merge, part 1 section nil", sec, mergeWith(absentPart))
	}
}

// encodedCheckpoint checkpoints eng and returns the encoded bytes.
func encodedCheckpoint(t *testing.T, eng *Engine) []byte {
	t.Helper()
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
