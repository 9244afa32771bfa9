package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint hammers the checkpoint decoder with arbitrary
// bytes. The decoder must never panic or over-allocate, and anything it
// does accept must re-encode and re-decode to the same value (a decoded
// checkpoint is always a well-formed one).
func FuzzDecodeCheckpoint(f *testing.F) {
	// Seed from two scenario families: "storage" covers the battery and
	// demand-meter sections, "batch" covers the scheduler queue sections
	// (non-empty queues with partial progress at step 7).
	for _, name := range []string{"storage", "batch"} {
		sc := engineScenarios(f)[name]
		for _, k := range []int{0, 7} {
			_, cp := checkpointAt(f, clonePolicy(f, sc), k)
			var buf bytes.Buffer
			if err := cp.Encode(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			f.Add(buf.Bytes()[:buf.Len()/2])
			mutated := append([]byte(nil), buf.Bytes()...)
			mutated[len(mutated)/3] ^= 0xff
			f.Add(mutated)
			// The last interval's instant at a zone offset the time
			// encoder refuses.
			f.Add(withEnvelopeTime(f, buf.Bytes(), "last_at", at24(cp.LastAt)))
		}
	}
	f.Add([]byte("powerroute-checkpoint v1\n{}\n"))
	f.Add([]byte("powerroute-checkpoint v2\n{}\n"))
	f.Add([]byte("powerroute-checkpoint v3\n"))
	f.Add([]byte(nil))

	f.Fuzz(checkDecodeFixedPoint)
}

// FuzzDecodeCheckpointPayload reaches the parsers behind the payload
// digest, which FuzzDecodeCheckpoint's mutations almost never get past:
// the per-cluster histogram blobs and the meter-sample, load and
// assignment framing. It fuzzes the envelope JSON and the payload as
// separate inputs and re-stamps payload_bytes and payload_sha256 on the
// fuzzed payload before decoding. When the payload's length no longer
// matches the sections the envelope declares, the last cluster's
// histogram length takes up the difference, so an inserted or deleted
// byte shifts the framing instead of failing the length check. Each seed
// also comes with a NaN in its last assignment cell, which the decoder
// must refuse.
func FuzzDecodeCheckpointPayload(f *testing.F) {
	for _, name := range []string{"storage", "batch"} {
		sc := engineScenarios(f)[name]
		for _, k := range []int{0, 7} {
			_, cp := checkpointAt(f, clonePolicy(f, sc), k)
			var buf bytes.Buffer
			if err := cp.Encode(&buf); err != nil {
				f.Fatal(err)
			}
			// The magic line, the envelope line, then the payload.
			parts := bytes.SplitN(buf.Bytes(), []byte("\n"), 3)
			f.Add(parts[1], parts[2])
			nan := bytes.Clone(parts[2])
			binary.LittleEndian.PutUint64(nan[len(nan)-8:], 0xffff000000000000)
			f.Add(parts[1], nan)
		}
	}

	f.Fuzz(func(t *testing.T, envelope, payload []byte) {
		var env checkpointEnvelope
		if json.Unmarshal(envelope, &env) != nil || len(env.HistBytes) == 0 {
			return
		}
		sections := 8 * (env.Clusters + env.States*env.Clusters)
		for _, n := range env.HistBytes {
			sections += n
		}
		for _, n := range env.MeterSamples {
			sections += 8 * n
		}
		if last := &env.HistBytes[len(env.HistBytes)-1]; *last+len(payload)-sections >= 0 {
			*last += len(payload) - sections
		}
		if data, err := stampCheckpoint(env, payload); err == nil {
			checkDecodeFixedPoint(t, data)
		}
	})
}

// stampCheckpoint encodes a checkpoint file from env and payload, with
// payload_bytes and payload_sha256 set to the payload's, so the payload
// passes the length and digest checks whatever it holds. It fails only
// when env does not encode, as a decoded time with a +24:00 zone does not.
func stampCheckpoint(env checkpointEnvelope, payload []byte) ([]byte, error) {
	digest := sha256.Sum256(payload)
	env.PayloadBytes = int64(len(payload))
	env.PayloadSHA256 = hex.EncodeToString(digest[:])
	stamped, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	data := append([]byte(checkpointMagic+"\n"), stamped...)
	return append(append(data, '\n'), payload...), nil
}

// checkDecodeFixedPoint decodes data and, if the decoder accepts it,
// checks that the checkpoint re-encodes and re-decodes to the same value
// (a decoded checkpoint is always a well-formed one).
func checkDecodeFixedPoint(t *testing.T, data []byte) {
	cp, err := DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
	}
	again, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
	}
	if !reflect.DeepEqual(cp, again) {
		t.Fatal("decode(encode(decode(data))) != decode(data)")
	}
}
