package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerroute/internal/sim"
)

// TestBatchIngestRejectsNonFinite: a NaN or ±Inf price/demand row in a
// binary batch must be rejected with a 400 before it reaches the engine or
// the price feed — the JSON ingest path cannot even express non-finite
// numbers, and one poisoned sample would corrupt meters, p95 bills, and
// every checkpoint downstream.
func TestBatchIngestRejectsNonFinite(t *testing.T) {
	srv, ts, sys := testServer(t)
	start := srv.eng.Start()
	hubIDs := make([]string, len(sys.Fleet.Clusters))
	for i, cl := range sys.Fleet.Clusters {
		hubIDs[i] = cl.HubID
	}
	ns := len(sys.Fleet.States)

	postBatch := func(t *testing.T, path, contentType string, body *bytes.Buffer, wantCode int) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s: got %d want %d: %s", path, resp.StatusCode, wantCode, out.String())
		}
		return out.Bytes()
	}

	for _, tc := range []struct {
		name string
		bad  float64
	}{
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
	} {
		t.Run("prices-"+tc.name, func(t *testing.T) {
			row := make([]float64, len(hubIDs))
			for i := range row {
				row[i] = 30
			}
			row[len(row)/2] = tc.bad
			var b bytes.Buffer
			if err := WriteBatchHeader(&b, "prices", start, time.Hour, 1, len(hubIDs), hubIDs); err != nil {
				t.Fatal(err)
			}
			b.Write(AppendRow(nil, row))
			out := postBatch(t, "/v1/prices", ContentTypePricesBatch, &b, http.StatusBadRequest)
			if !strings.Contains(string(out), "non-finite") {
				t.Fatalf("rejected for the wrong reason: %s", out)
			}
			if feedEntries(srv) != 0 {
				t.Fatalf("poisoned price row entered the feed (%d entries)", feedEntries(srv))
			}
		})
	}

	// Demand: good prices in, then a batch whose second row carries a NaN.
	var pb bytes.Buffer
	if err := WriteBatchHeader(&pb, "prices", start, time.Hour, 4, len(hubIDs), hubIDs); err != nil {
		t.Fatal(err)
	}
	priceRow := make([]float64, len(hubIDs))
	for i := range priceRow {
		priceRow[i] = 25
	}
	for i := 0; i < 4; i++ {
		pb.Write(AppendRow(nil, priceRow))
	}
	postBatch(t, "/v1/prices", ContentTypePricesBatch, &pb, http.StatusOK)

	rows := [][]float64{flatDemand(ns, 500), flatDemand(ns, 500)}
	rows[1][ns/2] = math.NaN()
	var db bytes.Buffer
	if err := WriteBatchHeader(&db, "demand", start, time.Hour, len(rows), ns, nil); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		db.Write(AppendRow(nil, row))
	}
	out := postBatch(t, "/v1/demand", ContentTypeDemandBatch, &db, http.StatusBadRequest)
	var errResp struct {
		Error  string `json:"error"`
		Routed int    `json:"routed"`
	}
	if err := json.Unmarshal(out, &errResp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errResp.Error, "non-finite") {
		t.Fatalf("rejected for the wrong reason: %s", out)
	}
	// The clean first row committed; the poisoned one must not have.
	if got := srv.eng.StepsRun(); got != 1 {
		t.Fatalf("engine advanced %d steps, want 1 (rows before the NaN commit, the NaN row must not)", got)
	}
	for _, s := range srv.eng.Snapshot().ClusterRate {
		if math.IsNaN(s) {
			t.Fatal("NaN reached the engine's cluster rates")
		}
	}
}

// TestParseBatchHeaderRejectsBadHubs: duplicate hub names would let the
// last column silently win a cluster's price assignment, and "hubs="
// splits to one empty name; both must be 400s, end to end included.
func TestParseBatchHeaderRejectsBadHubs(t *testing.T) {
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	header := func(hubs string, cols int) string {
		return fmt.Sprintf("%s kind=prices start=%d step=%d rows=1 cols=%d hubs=%s\n",
			batchMagic, start.UnixNano(), int64(time.Hour), cols, hubs)
	}
	for _, tc := range []struct {
		name    string
		header  string
		wantErr string
	}{
		{"duplicate-hub", header("MISO,MISO", 2), "twice"},
		{"empty-hub-list", header("", 1), "empty hub name"},
		{"empty-hub-mid", header("A,,B", 3), "empty hub name"},
		{"trailing-empty", header("A,B,", 3), "empty hub name"},
		{"ok", header("A,B", 2), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ParseBatchHeader(bufio.NewReader(strings.NewReader(tc.header)))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid header rejected: %v", err)
				}
				if len(h.Hubs) != h.Cols {
					t.Fatalf("parsed %d hubs for %d cols", len(h.Hubs), h.Cols)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}

	// End to end: the handler must 400 a duplicated hub before any row is
	// ingested.
	srv, ts, sys := testServer(t)
	hub := sys.Fleet.Clusters[0].HubID
	body := header(hub+","+hub, 2) + string(AppendRow(nil, []float64{1, 2}))
	resp, err := http.Post(ts.URL+"/v1/prices", ContentTypePricesBatch, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate hub batch: got %d want 400", resp.StatusCode)
	}
	if feedEntries(srv) != 0 {
		t.Fatal("duplicate hub batch entered the feed")
	}
}

// FuzzParseBatchHeader hammers the batch header parser with arbitrary
// header lines: it must never panic, and anything it accepts must satisfy
// the documented invariants (a newline-terminated line of at most 64 KiB,
// known kind, positive dimensions under the row cap, positive step,
// non-zero start, a last row instant that fits in int64 nanoseconds, job
// blocks and gate bytes on demand batches only, and — for prices —
// exactly cols unique non-empty hub names). Written back with
// BatchHeader.Write, an accepted header parses to an equal one.
func FuzzParseBatchHeader(f *testing.F) {
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	f.Add(fmt.Sprintf("%s kind=demand start=%d step=%d rows=4 cols=9\n", batchMagic, start.UnixNano(), int64(time.Hour)))
	f.Add(fmt.Sprintf("%s kind=prices start=%d step=%d rows=1 cols=2 hubs=A,B\n", batchMagic, start.UnixNano(), int64(time.Hour)))
	f.Add(batchMagic + " kind=prices start=1 step=1 rows=1 cols=2 hubs=MISO,MISO\n")
	f.Add(batchMagic + " kind=demand start=0 step=3600000000000 rows=1048577 cols=1\n")
	f.Add(batchMagic + " kind=demand start=1 step=-1 rows=-1 cols=-1\n")
	f.Add(batchMagic + " kind=demand start=-9223372036854775808 step=1 rows=1 cols=1\n")
	f.Add(batchMagic + " kind=demand start=1 step=1 rows=9223372036854775807 cols=9223372036854775807\n")
	f.Add(batchMagic + " kind= start= step= rows= cols= hubs=\n")
	f.Add(batchMagic + " kind=prices start=1 step=1 rows=1 cols=1 hubs=A kind=demand\n")
	f.Add("not a batch\n")
	f.Add("")
	// 110,000 daily rows from 2006 run past 2262; the largest fitting
	// span is accepted, from a negative start too.
	f.Add(fmt.Sprintf("%s kind=prices start=%d step=%d rows=110000 cols=1 hubs=A\n", batchMagic, start.UnixNano(), int64(24*time.Hour)))
	f.Add(fmt.Sprintf("%s kind=demand start=1 step=%d rows=3 cols=1\n", batchMagic, int64(math.MaxInt64/2)))
	f.Add(fmt.Sprintf("%s kind=demand start=%d step=%d rows=2 cols=1\n", batchMagic, int64(math.MinInt64), int64(math.MaxInt64)))
	// Gate bytes ride demand batches, with or without job blocks; a
	// prices batch must refuse them.
	f.Add(fmt.Sprintf("%s kind=demand start=%d step=%d rows=4 cols=9 gates=1\n", batchMagic, start.UnixNano(), int64(time.Hour)))
	f.Add(fmt.Sprintf("%s kind=demand start=%d step=%d rows=4 cols=9 jobs=1 gates=1\n", batchMagic, start.UnixNano(), int64(time.Hour)))
	f.Add(fmt.Sprintf("%s kind=prices start=%d step=%d rows=1 cols=2 hubs=A,B gates=1\n", batchMagic, start.UnixNano(), int64(time.Hour)))

	f.Fuzz(func(t *testing.T, line string) {
		h, err := ParseBatchHeader(bufio.NewReader(strings.NewReader(line)))
		if err != nil {
			return
		}
		if i := strings.IndexByte(line, '\n'); i < 0 || i >= maxBatchHeader {
			t.Fatalf("accepted a header line of %d bytes", i+1)
		}
		if h.Kind != "demand" && h.Kind != "prices" {
			t.Fatalf("accepted kind %q", h.Kind)
		}
		if h.Rows <= 0 || h.Rows > maxBatchRows || h.Cols <= 0 {
			t.Fatalf("accepted dimensions %dx%d", h.Rows, h.Cols)
		}
		if h.Step <= 0 {
			t.Fatalf("accepted step %v", h.Step)
		}
		if h.Start.IsZero() {
			t.Fatal("accepted zero start")
		}
		last := new(big.Int).Mul(big.NewInt(int64(h.Rows-1)), big.NewInt(int64(h.Step)))
		if last.Add(last, big.NewInt(h.Start.UnixNano())); !last.IsInt64() {
			t.Fatalf("accepted last instant %v ns past int64 (%d rows at %v from %v)", last, h.Rows, h.Step, h.Start)
		}
		if h.Kind == "prices" {
			if len(h.Hubs) != h.Cols {
				t.Fatalf("accepted %d hubs for %d cols", len(h.Hubs), h.Cols)
			}
			seen := map[string]bool{}
			for _, hub := range h.Hubs {
				if hub == "" || seen[hub] {
					t.Fatalf("accepted empty or duplicate hub in %v", h.Hubs)
				}
				seen[hub] = true
			}
		} else if h.Hubs != nil {
			t.Fatalf("demand batch accepted hubs %v", h.Hubs)
		}
		if (h.Jobs || h.Gates) && h.Kind != "demand" {
			t.Fatalf("%s batch accepted jobs=%v gates=%v", h.Kind, h.Jobs, h.Gates)
		}
		var b bytes.Buffer
		if err := h.Write(&b); err != nil {
			t.Fatal(err)
		}
		back, err := ParseBatchHeader(bufio.NewReader(&b))
		if err != nil {
			t.Fatalf("written header %q does not parse: %v", b.String(), err)
		}
		if !reflect.DeepEqual(back, h) {
			t.Fatalf("round trip: %+v, want %+v", back, h)
		}
	})
}

// FuzzDecodeRow: DecodeRow never panics; it refuses any length that is
// not 8 bytes per column and any row holding a NaN, ±Inf or a value past
// ±sim.MaxMagnitude, and every row it accepts round-trips through
// AppendRow to the same bytes.
func FuzzDecodeRow(f *testing.F) {
	f.Add(AppendRow(nil, []float64{0, 1.5, -2, math.MaxFloat64, math.SmallestNonzeroFloat64}), uint8(5))
	f.Add(AppendRow(nil, []float64{sim.MaxMagnitude, -sim.MaxMagnitude, math.SmallestNonzeroFloat64}), uint8(3))
	f.Add(AppendRow(nil, []float64{1, math.Nextafter(-sim.MaxMagnitude, math.Inf(-1))}), uint8(2))
	f.Add(AppendRow(nil, []float64{math.Copysign(0, -1)}), uint8(1))
	f.Add(AppendRow(nil, []float64{1, math.NaN()}), uint8(2))
	f.Add(AppendRow(nil, []float64{math.Inf(1)}), uint8(1))
	f.Add(AppendRow(nil, []float64{math.Inf(-1), 3}), uint8(2))
	f.Add(AppendRow(nil, []float64{1, 2}), uint8(3))
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, b []byte, cols uint8) {
		dst := make([]float64, cols)
		err := DecodeRow(b, dst)
		if len(b) != 8*len(dst) {
			if err == nil {
				t.Fatalf("accepted %d bytes for %d columns", len(b), cols)
			}
			return
		}
		for i := 0; i < len(b); i += 8 {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(b[i:])); math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > sim.MaxMagnitude {
				if err == nil {
					t.Fatalf("accepted %v in column %d", v, i/8)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("refused a row within the bound: %v", err)
		}
		if got := AppendRow(nil, dst); !bytes.Equal(got, b) {
			t.Fatalf("round trip: %x, want %x", got, b)
		}
	})
}

// FuzzReadJobBlock: readJobBlock never panics on arbitrary bytes, never
// yields more than maxJobsPerRow jobs and none with an error, and a block
// it accepts round-trips through AppendJobs to the bytes it consumed.
func FuzzReadJobBlock(f *testing.F) {
	f.Add(AppendJobs(nil, nil))
	f.Add(AppendJobs(nil, []WireJob{{Cluster: 2, DeadlineSteps: 12, EnergyKWh: 500, MinFraction: 0.5}}))
	f.Add(AppendJobs(nil, []WireJob{
		{Cluster: 0, DeadlineSteps: 0, EnergyKWh: -1},
		{Cluster: math.MaxUint32, DeadlineSteps: math.MaxUint32, EnergyKWh: math.NaN(), MinFraction: math.Inf(-1)},
	}))
	f.Add(AppendJobs(nil, make([]WireJob, maxJobsPerRow+1)))
	f.Add(binary.LittleEndian.AppendUint32(nil, 3))
	f.Add([]byte{1})

	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		jobs, _, err := readJobBlock(r, nil, nil)
		if len(jobs) > maxJobsPerRow {
			t.Fatalf("yielded %d jobs, cap %d", len(jobs), maxJobsPerRow)
		}
		if err != nil {
			if len(jobs) != 0 {
				t.Fatalf("yielded %d jobs with error %v", len(jobs), err)
			}
			return
		}
		consumed := b[:len(b)-r.Len()]
		if got := AppendJobs(nil, jobs); !bytes.Equal(got, consumed) {
			t.Fatalf("round trip: %x, want %x", got, consumed)
		}
	})
}
