package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"powerroute/internal/experiments"
	"powerroute/internal/timeseries"
)

// buildReplayBodies pre-renders the full 39-month replay as binary batch
// bodies (price chunks and demand chunks, interleaved), so the benchmark
// measures the daemon side only: HTTP handling, batch parsing, price-feed
// maintenance, and one routing decision per hourly interval.
func buildReplayBodies(b *testing.B, batch int) (priceBodies, demandBodies [][]byte, steps int) {
	b.Helper()
	env, err := experiments.SharedEnv()
	if err != nil {
		b.Fatal(err)
	}
	sys := env.System
	hubs := sys.Market.Hubs()
	hubIDs := make([]string, len(hubs))
	rts := make([]*timeseries.Series, len(hubs))
	for i, h := range hubs {
		hubIDs[i] = h.ID
		s, err := sys.Market.RT(h.ID)
		if err != nil {
			b.Fatal(err)
		}
		rts[i] = s
	}
	ns := len(sys.Fleet.States)
	start := sys.Market.Start
	steps = sys.Market.Hours

	priceRow := make([]float64, len(hubIDs))
	demandRow := make([]float64, ns)
	for off := 0; off < steps; off += batch {
		n := min(batch, steps-off)
		chunkStart := start.Add(time.Duration(off) * time.Hour)

		var pb bytes.Buffer
		if err := WriteBatchHeader(&pb, "prices", chunkStart, time.Hour, n, len(hubIDs), hubIDs); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j, rt := range rts {
				priceRow[j] = rt.Values[off+i]
			}
			pb.Write(AppendRow(nil, priceRow))
		}
		priceBodies = append(priceBodies, pb.Bytes())

		var db bytes.Buffer
		if err := WriteBatchHeader(&db, "demand", chunkStart, time.Hour, n, ns, nil); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			demandRow = sys.LongRun.Rates(chunkStart.Add(time.Duration(i)*time.Hour), demandRow)
			db.Write(AppendRow(nil, demandRow))
		}
		demandBodies = append(demandBodies, db.Bytes())
	}
	return priceBodies, demandBodies, steps
}

// BenchmarkReplayThroughput replays the full 39-month hourly horizon
// through a powerrouted server over loopback HTTP in binary batches and
// reports sustained routed steps per second — the daemon's headline
// decision throughput (BENCH_pr3.json records it per machine).
func BenchmarkReplayThroughput(b *testing.B) {
	const batch = 2048
	priceBodies, demandBodies, steps := buildReplayBodies(b, batch)
	env, err := experiments.SharedEnv()
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := New(Config{Engine: testEngine(b, env.System)})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.StartTimer()

		for c := range priceBodies {
			postBench(b, client, ts.URL+"/v1/prices", ContentTypePricesBatch, priceBodies[c])
			postBench(b, client, ts.URL+"/v1/demand", ContentTypeDemandBatch, demandBodies[c])
		}

		b.StopTimer()
		if got := mustFinalizeSteps(b, srv); got != steps {
			b.Fatalf("routed %d steps, want %d", got, steps)
		}
		ts.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

func postBench(b *testing.B, client *http.Client, url, contentType string, body []byte) {
	b.Helper()
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: %d", url, resp.StatusCode)
	}
}

func mustFinalizeSteps(b *testing.B, srv *Server) int {
	b.Helper()
	res, err := srv.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	return res.Steps
}

// BenchmarkPriceFeed times one replay chunk's price-feed work on the
// shared 39-month world, as the daemon does it beside routing: the
// commit of a 2048-row, 29-hub prices batch, the chunk's 2 × 2048
// lookups (bill at t, decision at t − 1 h, both resolving into the
// batch just committed), and the prune after the chunk. Successive
// iterations walk the horizon chunk by chunk, starting over from an
// empty feed when they wrap.
func BenchmarkPriceFeed(b *testing.B) {
	const batch = 2048
	env, err := experiments.SharedEnv()
	if err != nil {
		b.Fatal(err)
	}
	sys := env.System
	hubs := sys.Market.Hubs()
	hubIDs := make([]string, len(hubs))
	cols := len(hubs)
	steps := sys.Market.Hours
	flat := make([]float64, steps*cols)
	for j, h := range hubs {
		hubIDs[j] = h.ID
		rt, err := sys.Market.RT(h.ID)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			flat[i*cols+j] = rt.Values[i]
		}
	}
	f := newPriceFeed(sys.Fleet)
	chunks := (steps + batch - 1) / batch
	k := 0
	for b.Loop() {
		if k == chunks {
			f.reset()
			k = 0
		}
		off := k * batch
		h := &BatchHeader{Kind: "prices", Start: sys.Market.Start.Add(time.Duration(off) * time.Hour),
			Step: time.Hour, Rows: min(batch, steps-off), Cols: cols, Hubs: hubIDs}
		if _, _, _, err := f.commit(h, flat[off*cols:(off+h.Rows)*cols]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < h.Rows; i++ {
			at := h.Start.Add(time.Duration(i) * time.Hour)
			f.lookup(at)
			f.lookup(at.Add(-time.Hour))
		}
		f.prune(h.Start.Add(time.Duration(h.Rows-1) * time.Hour))
		k++
	}
}
