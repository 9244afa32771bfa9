package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"powerroute/internal/carbon"
	"powerroute/internal/routing"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
)

var update = flag.Bool("update", false, "rewrite golden files")

// everySectionScenario is the hourly synthetic world at the given routing
// threshold with every optional subsystem but a burst gate configured:
// generous 95/5 soft caps, percentile batteries behind a demand-charge
// tariff, a carbon ledger, and the deferrable batch class.
func everySectionScenario(t testing.TB, thresholdKm float64, steps int) Scenario {
	t.Helper()
	fx := fixtures()
	sc := longRunScenario(t, thresholdKm)
	sc.Steps = steps
	nc := len(fx.Fleet.Clusters)
	sc.SoftCaps = make([]float64, nc)
	rts := make([]*timeseries.Series, nc)
	for c, cl := range fx.Fleet.Clusters {
		sc.SoftCaps[c] = 2 * float64(cl.Capacity)
		rt, err := sc.Market.RT(cl.HubID)
		if err != nil {
			t.Fatal(err)
		}
		rts[c] = rt
	}
	dispatch, err := storage.NewPercentile(rts, 0.25, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	sc.Storage = &storage.Config{
		Batteries:    uniformBatteries(nc),
		Policy:       dispatch,
		RoutingAware: true,
	}
	sc.DemandChargePerKW = 4
	if sc.Carbon, err = carbon.FleetSeries(3, fx.Fleet, fx.Market.Start, fx.Market.Hours); err != nil {
		t.Fatal(err)
	}
	sc.Batch = batchTestConfig(t, sc)
	return sc
}

// TestCheckpointBytesGolden pins the encoded checkpoint bytes — one
// SHA-256 and length per case — for every engine scenario, for the parts
// and merge of a shard split that carries every optional section but the
// lease ledgers, and for the lease-fed clique merge that carries those.
// TestCheckpointRoundTrip only shows decode(encode(x)) = x, which any
// encoding satisfies; this is what keeps the wire format itself fixed.
// Regenerate with `go test ./internal/sim -run TestCheckpointBytesGolden
// -update` only for a deliberate format change (and bump
// CheckpointVersion with it).
func TestCheckpointBytesGolden(t *testing.T) {
	var lines []string
	record := func(label string, cp *Checkpoint) {
		t.Helper()
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lines = append(lines, fmt.Sprintf("%s sha256:%x bytes:%d", label, sha256.Sum256(buf.Bytes()), buf.Len()))
	}
	capture := func(label string, eng *Engine) *Checkpoint {
		t.Helper()
		cp, err := eng.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		record(label, cp)
		return cp
	}

	scenarios := engineScenarios(t)
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := clonePolicy(t, scenarios[name])
		eng, err := NewEngine(sc)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for _, k := range []int{0, 5, sc.Steps - 1} {
			driveSteps(t, eng, sc, k-at)
			at = k
			capture(fmt.Sprintf("%s@%d", name, k), eng)
		}
	}

	split := everySectionScenario(t, 600, 45*24)
	p, err := PartitionByRouting(split.Policy.(routing.Sharder), split.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := split.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("600 km split has %d shards, want 3", len(subs))
	}
	engines := make([]*Engine, len(subs))
	for i, sub := range subs {
		if engines[i], err = NewEngine(sub); err != nil {
			t.Fatal(err)
		}
	}
	// mergeParts records every shard part and their merge.
	mergeParts := func(label string, engines []*Engine) {
		t.Helper()
		parts := make([]*Checkpoint, len(engines))
		for i, eng := range engines {
			parts[i] = capture(fmt.Sprintf("%s-part%d", label, i), eng)
		}
		merged, err := MergeCheckpoints(parts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		record(label+"-merged", merged)
	}
	at := 0
	for _, k := range []int{0, 7, split.Steps} {
		for i, eng := range engines {
			driveSteps(t, eng, subs[i], k-at)
		}
		at = k
		mergeParts(fmt.Sprintf("split600@%d", k), engines)
	}

	clique := cliqueScenario(t, 600, [][2]string{{"NP15", "SP15"}, {"ERN", "ERS"}, {"NYC", "DOM"}})
	clique.SoftCaps = tightSoftCaps(t, clique)
	clique.BurstGate = SelfGate{}
	gates := jointGateBits(t, clique)
	for _, k := range []int{0, clique.Steps / 2, clique.Steps} {
		mergeParts(fmt.Sprintf("clique600@%d", k), leaseFedShardEngines(t, clonePolicy(t, clique), gates, k))
	}

	checkBytesGolden(t, "checkpoint_bytes.golden", strings.Join(lines, "\n")+"\n")
}

// checkBytesGolden compares got against testdata/name, or rewrites the
// file under -update, naming every case whose line differs.
func checkBytesGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestCheckpointBytesGolden -update` to create it)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", name, len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d drifted:\ngot  %s\nwant %s", name, i+1, gotLines[i], wantLines[i])
		}
	}
}
