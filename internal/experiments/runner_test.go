package experiments

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/energy"
)

func TestForEach(t *testing.T) {
	defer SetParallelism(0)
	// Results land at their own index regardless of worker interleaving.
	SetParallelism(8)
	out := make([]int, 100)
	if err := forEach(len(out), func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// The reported error is the lowest-index failure, independent of
	// scheduling.
	errA, errB := errors.New("a"), errors.New("b")
	SetParallelism(4)
	err := forEach(50, func(i int) error {
		switch i {
		case 7:
			return errA
		case 31:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want lowest-index error %v", err, errA)
	}
	// Degenerate sizes.
	if err := forEach(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	SetParallelism(1)
	calls := 0
	if err := forEach(3, func(int) error { calls++; return nil }); err != nil || calls != 3 {
		t.Fatalf("serial path: calls=%d err=%v", calls, err)
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := parallelism(); got != 3 {
		t.Fatalf("parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got, want := parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("parallelism() = %d, want default %d", got, want)
	}
}

// fakeDef builds a registry entry that records its run and returns canned
// text.
func fakeDef(id string, delay time.Duration, ran *atomic.Int32, fail error) Definition {
	return Definition{ID: id, Title: "fake " + id, Run: func(*Env) (*Result, error) {
		time.Sleep(delay)
		ran.Add(1)
		if fail != nil {
			return nil, fail
		}
		return &Result{ID: id, Title: "fake " + id, Text: id + "\n"}, nil
	}}
}

// TestRunStreamOrder checks results are emitted in definition order even
// when later entries finish first.
func TestRunStreamOrder(t *testing.T) {
	var ran atomic.Int32
	defs := []Definition{
		fakeDef("slow", 30*time.Millisecond, &ran, nil),
		fakeDef("mid", 10*time.Millisecond, &ran, nil),
		fakeDef("fast", 0, &ran, nil),
	}
	defer SetParallelism(0)
	SetParallelism(3)
	var got []string
	err := RunStream(nil, defs, func(res *Result, _ time.Duration) error {
		got = append(got, res.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "slow,mid,fast"; strings.Join(got, ",") != want {
		t.Fatalf("emit order %v, want %s", got, want)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d experiments, want 3", ran.Load())
	}
}

// TestRunStreamError checks the lowest-index failure is surfaced, wrapped
// with its experiment ID.
func TestRunStreamError(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	defs := []Definition{
		fakeDef("ok", 0, &ran, nil),
		fakeDef("bad", 0, &ran, boom),
		fakeDef("late-bad", 20*time.Millisecond, &ran, errors.New("other")),
	}
	defer SetParallelism(0)
	SetParallelism(3)
	err := RunStream(nil, defs, func(*Result, time.Duration) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %q missing experiment ID", err)
	}
}

// shortDeterminismIDs are the cheap experiments exercised under -short: the
// market analyses plus the 24-day simulation figures and light ablations.
var shortDeterminismIDs = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	"ablation-deadband", "ablation-exponent", "ablation-hardcap",
}

func determinismDefs(t *testing.T) []Definition {
	if !testing.Short() {
		return All()
	}
	defs := make([]Definition, 0, len(shortDeterminismIDs))
	for _, id := range shortDeterminismIDs {
		def, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		defs = append(defs, def)
	}
	return defs
}

// renderAll runs defs at the given parallelism against a fresh world and
// returns the concatenated rendered output. A fresh Env per call means the
// parallel pass exercises concurrent baseline computation (the single-
// flight cache) rather than reading results the serial pass warmed.
func renderAll(t *testing.T, defs []Definition, parallel int) string {
	t.Helper()
	env, err := NewEnv(core.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(parallel)
	defer SetParallelism(0)
	results, err := RunAll(env, defs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, res := range results {
		fmt.Fprintf(&b, "=== %s: %s ===\n%s\n", res.ID, res.Title, res.Text)
	}
	return b.String()
}

// TestParallelDeterminism verifies the headline contract of the concurrent
// engine: the rendered figure output of a parallel run is byte-identical
// to a serial run.
func TestParallelDeterminism(t *testing.T) {
	defs := determinismDefs(t)
	serial := renderAll(t, defs, 1)
	parallel := renderAll(t, defs, 4)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial run:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 || !strings.Contains(serial, "=== fig1:") {
		t.Fatalf("suspiciously empty output:\n%s", serial)
	}
	checkRenderGolden(t, serial)
}

var update = flag.Bool("update", false, "rewrite this mode's line of testdata/render.golden")

// checkRenderGolden pins the serial rendering by SHA-256 and byte length.
// testdata/render.golden has two lines: "all", the whole registry, byte
// for byte what `powerroute all` prints, then "short", the -short subset.
// Regenerate the current mode's line with `go test ./internal/experiments
// -run TestParallelDeterminism -update` (add -short for the subset) only
// when a figure is meant to change.
func checkRenderGolden(t *testing.T, rendered string) {
	t.Helper()
	mode, idx := "all", 0
	if testing.Short() {
		mode, idx = "short", 1
	}
	got := fmt.Sprintf("%s sha256:%x bytes:%d", mode, sha256.Sum256([]byte(rendered)), len(rendered))
	path := filepath.Join("testdata", "render.golden")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s has %d lines, want 2 (all, short)", path, len(lines))
	}
	if *update {
		lines[idx] = got
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if lines[idx] != got {
		t.Errorf("rendering drifted:\ngot  %s\nwant %s", got, lines[idx])
	}
}

// TestParallelSpeedup pins the point of the worker pool: on a multi-core
// machine the parallel registry run must be at least 2.5x faster than the
// serial one. Skipped on small machines and under -short, where the
// comparison is meaningless.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is expensive; run without -short")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 CPUs to assert a 2.5x speedup, have %d", runtime.GOMAXPROCS(0))
	}
	defs := All()
	measure := func() (serial, parallel time.Duration) {
		start := time.Now()
		renderAll(t, defs, 1)
		serial = time.Since(start)
		start = time.Now()
		renderAll(t, defs, runtime.GOMAXPROCS(0))
		parallel = time.Since(start)
		t.Logf("serial %v, parallel %v (%.2fx)", serial, parallel, float64(serial)/float64(parallel))
		return serial, parallel
	}
	serial, parallel := measure()
	if float64(serial) < 2.5*float64(parallel) {
		// Wall-clock ratios wobble on loaded machines; believe a miss only
		// if a second measurement agrees.
		serial, parallel = measure()
	}
	if float64(serial) < 2.5*float64(parallel) {
		t.Errorf("parallel run not >= 2.5x faster: serial %v vs parallel %v", serial, parallel)
	}
}

// TestRunConfigsSharedBaseline checks concurrent sweep entries sharing a
// (horizon, energy) pair observe one baseline computation (single flight),
// not several.
func TestRunConfigsSharedBaseline(t *testing.T) {
	env, err := SharedEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]core.RunConfig, 6)
	for i := range cfgs {
		cfgs[i] = core.RunConfig{
			Horizon:             core.Trace24Day,
			Energy:              energy.OptimisticFuture,
			DistanceThresholdKm: float64(250 * (i + 1)),
		}
	}
	outs, err := runConfigs(env.System, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Baseline != outs[0].Baseline {
			t.Fatalf("entry %d got a different baseline pointer", i)
		}
	}
}
