package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/sim"
)

// routeIntervals posts a price vector and routes n JSON demand intervals.
func routeIntervals(t *testing.T, ts *httptest.Server, sys *core.System, n int) {
	t.Helper()
	postJSON(t, ts.URL+"/v1/prices", PricePost{At: sys.Market.Start, Prices: hubPrices(sys, 30)}, http.StatusOK)
	demand := flatDemand(len(sys.Fleet.States), 1500)
	for i := 0; i < n; i++ {
		postJSON(t, ts.URL+"/v1/demand", DemandPost{Rates: demand}, http.StatusOK)
	}
}

func getCheckpoint(t *testing.T, ts *httptest.Server, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET /v1/checkpoint: got %d want %d: %s", resp.StatusCode, wantCode, body)
	}
	return body
}

func putCheckpoint(t *testing.T, ts *httptest.Server, body []byte, wantCode int) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/checkpoint", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeCheckpoint)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("PUT /v1/checkpoint: got %d want %d: %s", resp.StatusCode, wantCode, out)
	}
	return out
}

// TestCheckpointEndpointRoundTrip: GET /v1/checkpoint on a mid-run daemon
// yields a decodable snapshot at the right cursor, and PUT onto a fresh
// daemon of the same world resumes it with identical books and a cleared
// price feed.
func TestCheckpointEndpointRoundTrip(t *testing.T) {
	_, tsA, sys := testServer(t)
	routeIntervals(t, tsA, sys, 3)
	statusA := get(t, tsA.URL+"/v1/status", http.StatusOK)

	snapshot := getCheckpoint(t, tsA, http.StatusOK)
	cp, err := sim.DecodeCheckpoint(bytes.NewReader(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if cp.StepsRun != 3 {
		t.Fatalf("checkpoint at step %d, want 3", cp.StepsRun)
	}

	_, tsB, _ := testServer(t)
	out := putCheckpoint(t, tsB, snapshot, http.StatusOK)
	var restored struct {
		RestoredSteps int       `json:"restored_steps"`
		Next          time.Time `json:"next"`
	}
	if err := json.Unmarshal(out, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.RestoredSteps != 3 {
		t.Fatalf("restored_steps = %d, want 3", restored.RestoredSteps)
	}
	if want := sys.Market.Start.Add(3 * time.Hour); !restored.Next.Equal(want) {
		t.Fatalf("next = %v, want %v", restored.Next, want)
	}

	// Identical books — compare the full status documents, modulo the
	// price feed (cleared by restore so feeders must re-post).
	statusB := get(t, tsB.URL+"/v1/status", http.StatusOK)
	strip := func(b []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "price_feed_entries")
		return m
	}
	a, b := strip(statusA), strip(statusB)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("restored status diverges:\nA: %s\nB: %s", aj, bj)
	}

	// The restored daemon keeps routing: re-post the price lookback and
	// the next interval succeeds at the restored cursor.
	routeIntervals(t, tsB, sys, 1)
}

// TestCheckpointEndpointRejections: garbage bodies, checkpoints from a
// different world, and snapshots of a finalized engine are all refused.
func TestCheckpointEndpointRejections(t *testing.T) {
	srv, ts, sys := testServer(t)
	routeIntervals(t, ts, sys, 2)
	snapshot := getCheckpoint(t, ts, http.StatusOK)

	if body := putCheckpoint(t, ts, []byte("definitely not a checkpoint"), http.StatusBadRequest); !bytes.Contains(body, []byte("checkpoint")) {
		t.Errorf("garbage PUT error unhelpful: %s", body)
	}

	// Truncated snapshot: atomic-write discipline means this can only be
	// a corrupt copy; it must never restore.
	putCheckpoint(t, ts, snapshot[:len(snapshot)-7], http.StatusBadRequest)

	// A daemon over a different world (2-month market) must refuse the
	// 1-month world's checkpoint on its world hash.
	sysOther, err := core.NewSystem(core.Options{Seed: 42, MarketMonths: 2, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	srvOther, err := New(Config{Engine: testEngine(t, sysOther)})
	if err != nil {
		t.Fatal(err)
	}
	tsOther := httptest.NewServer(srvOther.Handler())
	defer tsOther.Close()
	if body := putCheckpoint(t, tsOther, snapshot, http.StatusConflict); !bytes.Contains(body, []byte("mismatch")) &&
		!bytes.Contains(body, []byte("differs")) {
		t.Errorf("foreign-world PUT error unhelpful: %s", body)
	}

	if _, err := srv.Finalize(); err != nil {
		t.Fatal(err)
	}
	body := getCheckpoint(t, ts, http.StatusConflict)
	if !strings.Contains(string(body), "finalized") {
		t.Errorf("finalized GET error unhelpful: %s", body)
	}
}

// TestWriteCheckpointFile: the daemon-side periodic writer produces a file
// that restores into an engine at the server's cursor.
func TestWriteCheckpointFile(t *testing.T) {
	srv, ts, sys := testServer(t)
	routeIntervals(t, ts, sys, 2)
	path := t.TempDir() + "/checkpoint.ckpt"
	if err := srv.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	cp, err := sim.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.StepsRun != 2 {
		t.Fatalf("file checkpoint at step %d, want 2", cp.StepsRun)
	}
	eng, err := sim.Restore(testEngine(t, sys).Scenario(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if eng.StepsRun() != 2 {
		t.Fatalf("restored engine at step %d, want 2", eng.StepsRun())
	}
}
