package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/stats"
)

// checkpointAt drives a fresh engine k steps into sc, checkpoints it, and
// pushes the checkpoint through a full encode/decode cycle so every test
// exercises the wire format, not just the in-memory copy.
func checkpointAt(t testing.TB, sc Scenario, k int) (*Engine, *Checkpoint) {
	t.Helper()
	eng, err := NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, eng, sc, k)
	cp, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return eng, decoded
}

// TestRestoreMatchesUninterrupted is the headline durability invariant:
// for every registry scenario (optimizer, soft caps, carbon-aware,
// storage + demand charge), replaying N steps, checkpointing through the
// wire format, restoring into a fresh engine, and replaying the rest must
// reproduce the uninterrupted batch Run's Result bit for bit. The
// interrupted engine itself must also finish identically — Checkpoint is
// a pure read.
func TestRestoreMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, sc := range engineScenarios(t) {
		t.Run(name, func(t *testing.T) {
			batch, err := Run(clonePolicy(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			offsets := []int{1, sc.Steps / 2, sc.Steps - 1}
			for i := 0; i < 2; i++ {
				offsets = append(offsets, 1+rng.Intn(sc.Steps-1))
			}
			for _, k := range offsets {
				interrupted, cp := checkpointAt(t, clonePolicy(t, sc), k)
				snapAtK := interrupted.Snapshot()

				restored, err := Restore(clonePolicy(t, sc), cp)
				if err != nil {
					t.Fatalf("offset %d: %v", k, err)
				}
				if !reflect.DeepEqual(restored.Snapshot(), snapAtK) {
					t.Fatalf("offset %d: restored snapshot diverges:\nwant %+v\ngot  %+v", k, snapAtK, restored.Snapshot())
				}

				driveSteps(t, restored, sc, sc.Steps-k)
				res, err := restored.Finalize()
				if err != nil {
					t.Fatalf("offset %d: %v", k, err)
				}
				if !reflect.DeepEqual(res, batch) {
					t.Fatalf("offset %d: kill-and-restore result diverges from batch Run:\nbatch:    %+v\nrestored: %+v", k, batch, res)
				}

				// The checkpointed engine keeps running unperturbed.
				driveSteps(t, interrupted, sc, sc.Steps-k)
				cont, err := interrupted.Finalize()
				if err != nil {
					t.Fatalf("offset %d: %v", k, err)
				}
				if !reflect.DeepEqual(cont, batch) {
					t.Fatalf("offset %d: Checkpoint mutated the live engine: %+v vs %+v", k, cont, batch)
				}
			}
		})
	}
}

// TestCheckpointRoundTrip is the encode/decode property: for every
// scenario and randomized offsets, Checkpoint → Encode → Decode must be
// DeepEqual to the original — every float bit, every month bucket, every
// histogram bin.
func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, sc := range engineScenarios(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{0, 1 + rng.Intn(sc.Steps-1), sc.Steps - 1} {
				eng, err := NewEngine(clonePolicy(t, sc))
				if err != nil {
					t.Fatal(err)
				}
				driveSteps(t, eng, sc, k)
				cp, err := eng.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := cp.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				decoded, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("offset %d: %v", k, err)
				}
				if !reflect.DeepEqual(cp, decoded) {
					t.Fatalf("offset %d: decode(encode(cp)) != cp:\nwant %+v\ngot  %+v", k, cp, decoded)
				}
			}
		})
	}
}

// TestCheckpointRejectsCorruption: truncated, bit-flipped, version-bumped,
// and trailing-garbage files must all fail loudly, never restore wrong.
func TestCheckpointRejectsCorruption(t *testing.T) {
	sc := engineScenarios(t)["optimizer"]
	_, cp := checkpointAt(t, clonePolicy(t, sc), 50)
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := DecodeCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	headerLen := bytes.IndexByte(good, '\n') + 1
	envLen := bytes.IndexByte(good[headerLen:], '\n') + 1
	payloadStart := headerLen + envLen
	truncations := map[string]int{
		"empty":        0,
		"mid-magic":    headerLen / 2,
		"mid-envelope": headerLen + envLen/2,
		"no-payload":   payloadStart,
		"mid-payload":  payloadStart + (len(good)-payloadStart)/2,
		"last-byte":    len(good) - 1,
	}
	for name, cut := range truncations {
		if _, err := DecodeCheckpoint(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation %q (%d of %d bytes) accepted", name, cut, len(good))
		}
	}

	flipped := append([]byte(nil), good...)
	flipped[payloadStart+(len(good)-payloadStart)/3] ^= 0x40
	if _, err := DecodeCheckpoint(bytes.NewReader(flipped)); err == nil {
		t.Error("bit-flipped payload accepted")
	} else if !strings.Contains(err.Error(), "digest") {
		t.Errorf("bit flip rejected for the wrong reason: %v", err)
	}

	future := append([]byte(nil), good...)
	future = bytes.Replace(future, []byte(checkpointMagic), []byte("powerroute-checkpoint v9"), 1)
	if _, err := DecodeCheckpoint(bytes.NewReader(future)); err == nil {
		t.Error("future-version checkpoint accepted")
	} else if !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("future version rejected for the wrong reason: %v", err)
	}

	if _, err := DecodeCheckpoint(bytes.NewReader(append(append([]byte(nil), good...), 0x00))); err == nil {
		t.Error("trailing garbage accepted")
	}

	if _, err := DecodeCheckpoint(strings.NewReader("not a checkpoint at all\n")); err == nil {
		t.Error("foreign file accepted")
	}
}

// TestDecodeRejectsOverflowingSampleCounts: a crafted envelope whose
// per-cluster meter-sample counts overflow their int64 sum must be
// rejected with an error, not drive the section parser into an absurd
// allocation. The payload here is sized to match exactly what the
// *wrapped* sum would predict (hist blob + 32 bytes), which is the shape
// that defeated a sum-only check.
func TestDecodeRejectsOverflowingSampleCounts(t *testing.T) {
	hist := stats.NewWeightedHistogram(0, 5500, 1100)
	blob, err := hist.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload := append(append([]byte(nil), blob...), make([]byte, 32)...)
	digest := sha256.Sum256(payload)
	env := checkpointEnvelope{
		Checkpoint: Checkpoint{
			Version:      CheckpointVersion,
			Clusters:     2,
			States:       1,
			ClusterCodes: []string{"A", "B"},
			StateCodes:   []string{"XX"},
			StepsRun:     1,
		},
		MeterSamples:  []int{1 << 62, 1 << 62},
		HistBytes:     []int{len(blob), 0},
		PayloadBytes:  int64(len(payload)),
		PayloadSHA256: hex.EncodeToString(digest[:]),
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	fmt.Fprintf(&file, "%s\n%s\n", checkpointMagic, envJSON)
	file.Write(payload)
	if _, err := DecodeCheckpoint(bytes.NewReader(file.Bytes())); err == nil {
		t.Fatal("overflowing sample counts accepted")
	} else if !strings.Contains(err.Error(), "meter samples") {
		t.Fatalf("rejected for the wrong reason: %v", err)
	}
}

// TestDecodeRejectsNonFinite: the decoder refuses a NaN or ±Inf meter
// sample, last-interval load or assignment cell, naming the section and
// the cluster or state. Each case writes one value into a good encoding
// of the batch world at step 7 and re-stamps the digest, so only the
// value can fail.
func TestDecodeRejectsNonFinite(t *testing.T) {
	_, cp := checkpointAt(t, clonePolicy(t, engineScenarios(t)["batch"]), 7)
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// The magic line, the envelope line, then the payload.
	parts := bytes.SplitN(buf.Bytes(), []byte("\n"), 3)
	var env checkpointEnvelope
	if err := json.Unmarshal(parts[1], &env); err != nil {
		t.Fatal(err)
	}
	if env.MeterSamples[0] == 0 {
		t.Fatal("cluster 0 has no meter sample to corrupt")
	}
	payload := parts[2]
	decode := func(p []byte) error {
		data, err := stampCheckpoint(env, p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeCheckpoint(bytes.NewReader(data))
		return err
	}
	if err := decode(payload); err != nil {
		t.Fatalf("re-stamped pristine checkpoint rejected: %v", err)
	}
	samples := 0 // offset of cluster 0's first meter sample
	for _, n := range env.HistBytes {
		samples += n
	}
	loads := samples
	for _, n := range env.MeterSamples {
		loads += 8 * n
	}
	for _, tc := range []struct {
		name string
		off  int
		bits uint64
		want string
	}{
		{"+Inf meter sample", samples, math.Float64bits(math.Inf(1)), "cluster 0 meter sample 0 is +Inf"},
		{"-Inf load", loads + 8*2, math.Float64bits(math.Inf(-1)), "last-interval load of cluster 2 is -Inf"},
		{"NaN assignment cell", len(payload) - 8, 0xffff000000000000,
			fmt.Sprintf("assignment of state %d to cluster %d is NaN", env.States-1, env.Clusters-1)},
	} {
		p := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(p[tc.off:], tc.bits)
		if err := decode(p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not say %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeChecksShape: the decoder refuses a checkpoint whose envelope
// disagrees with its own geometry, without waiting for restore or merge.
// Each case edits one rule's worth of a good encoding's envelope and
// keeps its payload, so the framing and the digest still hold.
func TestDecodeChecksShape(t *testing.T) {
	sc := engineScenarios(t)["storage"]
	_, cp := checkpointAt(t, clonePolicy(t, sc), 20)
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// The magic line, the envelope line, then the payload.
	parts := bytes.SplitN(buf.Bytes(), []byte("\n"), 3)
	for _, tc := range []struct {
		rule, want string
		edit       func(env *checkpointEnvelope)
	}{
		{"no edit", "", func(*checkpointEnvelope) {}},
		{"a totals vector one too long", "cluster costs", func(env *checkpointEnvelope) {
			env.Totals.ClusterCost = append(env.Totals.ClusterCost, 0)
		}},
		{"an optional section one short", "battery snapshots", func(env *checkpointEnvelope) {
			env.Batteries = env.Batteries[1:]
		}},
		{"steps_run disagreeing with meter_samples", "meter samples", func(env *checkpointEnvelope) {
			env.StepsRun++
		}},
	} {
		var env checkpointEnvelope
		if err := json.Unmarshal(parts[1], &env); err != nil {
			t.Fatal(err)
		}
		tc.edit(&env)
		envJSON, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want == "" && !bytes.Equal(envJSON, parts[1]) {
			t.Fatalf("the envelope does not re-encode to itself:\n%s\n%s", envJSON, parts[1])
		}
		data := bytes.Join([][]byte{parts[0], envJSON, parts[2]}, []byte("\n"))
		_, err = DecodeCheckpoint(bytes.NewReader(data))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.rule, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v does not name %q", tc.rule, err, tc.want)
		}
	}
}

// TestCheckpointCarriesEveryField: the JSON codec, not a hand-written
// copy, carries each of Checkpoint's small fields, so a field tagged "-"
// by mistake would silently drop out of every encoding. A shard
// checkpoint of the every-section world under SelfGate sets every field
// of Checkpoint and Totals, and each must survive Encode and
// DecodeCheckpoint.
func TestCheckpointCarriesEveryField(t *testing.T) {
	sc := everySectionScenario(t, 600, 3*24)
	sc.BurstGate = SelfGate{}
	engines, _ := shardEngines(t, clonePolicy(t, sc), 30)
	cp, err := engines[1].Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range [][2]reflect.Value{
		{reflect.ValueOf(*cp), reflect.ValueOf(*decoded)},
		{reflect.ValueOf(cp.Totals), reflect.ValueOf(decoded.Totals)},
	} {
		typ := v[0].Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			if v[0].Field(i).IsZero() {
				t.Errorf("%s is zero, so this checkpoint does not show it survives", name)
			}
			if !reflect.DeepEqual(v[0].Field(i).Interface(), v[1].Field(i).Interface()) {
				t.Errorf("%s does not survive Encode and DecodeCheckpoint", name)
			}
		}
	}
}

// TestRestoreRefusesForeignWorlds: a checkpoint must only load into the
// exact world that produced it — different reaction delay (world hash),
// different policy, or a tampered step cursor are all refused.
func TestRestoreRefusesForeignWorlds(t *testing.T) {
	fx := fixtures()
	sc := engineScenarios(t)["optimizer"]
	_, cp := checkpointAt(t, clonePolicy(t, sc), 40)

	// Same geometry, different world: reaction delay participates in the
	// world hash but not in the envelope's structural echoes.
	delayed := clonePolicy(t, sc)
	delayed.ReactionDelay = 0
	if _, err := Restore(delayed, cp); err == nil {
		t.Error("restore accepted a checkpoint from a different reaction delay")
	} else if !strings.Contains(err.Error(), "world hash mismatch") {
		t.Errorf("wrong error for world mismatch: %v", err)
	}

	// Different policy name fails on the configuration echo.
	other := clonePolicy(t, sc)
	other.Policy = routing.NewBaseline(fx.Fleet)
	if _, err := Restore(other, cp); err == nil {
		t.Error("restore accepted a checkpoint from a different policy")
	}

	// Tampered cursor: meters no longer line up with the claimed step.
	tampered := *cp
	tampered.StepsRun++
	if _, err := Restore(clonePolicy(t, sc), &tampered); err == nil {
		t.Error("restore accepted a cursor that disagrees with the meter record")
	}

	// A finalized engine has closed books; checkpointing it must fail.
	eng, err := NewEngine(clonePolicy(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, eng, sc, 3)
	if _, err := eng.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(); err == nil {
		t.Error("checkpoint of a finalized engine accepted")
	}
}

// TestWriteCheckpointFileAtomic: the published file decodes, and the
// directory never holds a partial file under the real name (temp files
// are cleaned up on success).
func TestWriteCheckpointFileAtomic(t *testing.T) {
	sc := engineScenarios(t)["storage"]
	_, cp := checkpointAt(t, clonePolicy(t, sc), 25)
	dir := t.TempDir()
	path := dir + "/checkpoint.ckpt"
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place — the rename replaces the old file atomically.
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatal("file round-trip changed the checkpoint")
	}
	if _, err := Restore(clonePolicy(t, sc), got); err != nil {
		t.Fatal(err)
	}
}

// hourly39Month is the shared 39-month hourly world under the 1500 km
// optimizer.
func hourly39Month(b *testing.B) Scenario {
	fx := fixtures()
	opt, err := routing.NewPriceOptimizer(fx.Fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		b.Fatal(err)
	}
	return Scenario{
		Fleet:         fx.Fleet,
		Policy:        opt,
		Energy:        energy.OptimisticFuture,
		Market:        fx.Market,
		Demand:        fx.LR,
		Start:         fx.Market.Start,
		Steps:         fx.Market.Hours,
		Step:          time.Hour,
		ReactionDelay: DefaultReactionDelay,
	}
}

// BenchmarkWorldHash measures hashing the 39-month world, which every
// Restore does once: a coordinator restores the joint world on every
// status or metrics read.
func BenchmarkWorldHash(b *testing.B) {
	sc := hourly39Month(b)
	prices, err := sc.clusterPrices()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		worldHash(&sc, prices)
	}
}

// BenchmarkCheckpoint39Month measures the encode+decode cycle of a
// full-horizon engine state (the acceptance budget is < 100 ms for the
// 39-month world).
func BenchmarkCheckpoint39Month(b *testing.B) {
	sc := hourly39Month(b)
	eng, err := NewEngine(sc)
	if err != nil {
		b.Fatal(err)
	}
	driveSteps(b, eng, sc, sc.Steps)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := eng.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := cp.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "checkpoint-bytes")
}
