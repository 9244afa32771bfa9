package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"powerroute/internal/coord"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// newClient returns a client with its own connection pool that consults
// no proxy from the environment. A load goroutine's client keeps one
// idle connection, since the goroutine has one request in flight.
func newClient(idlePerHost int) *http.Client {
	return &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: idlePerHost, DisableCompression: true},
	}
}

// do sends one request and drains the response, failing on any non-2xx
// status.
func do(client *http.Client, method, url, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// pollSpec is an open-loop reader: one GET every period, cycling
// through paths. Only the requests to timed feed the latency metrics.
type pollSpec struct {
	period time.Duration
	paths  []string
	timed  string
}

var (
	daemonPoll = pollSpec{
		period: 10 * time.Millisecond,
		paths:  []string{"/v1/status", "/v1/status", "/metrics", "/healthz"},
		timed:  "/v1/status",
	}
	coordPoll = pollSpec{
		period: 100 * time.Millisecond,
		paths:  []string{"/v1/status?refresh=1"},
		timed:  "/v1/status?refresh=1",
	}
)

type pollResult struct {
	latencies []float64 // ms from each timed request's due time to its response
	late      []float64 // ms each request was sent after its due time
	attempted int
	errs      []error
}

// poll runs the reader until stop is closed, sending the first request
// phase after it starts. Each request is timed from the instant it was
// due, so a stall also counts against the requests queued behind it.
func poll(client *http.Client, base string, spec pollSpec, phase time.Duration, stop <-chan struct{}, tr *tracer, parent, rep int) pollResult {
	var res pollResult
	start := time.Now().Add(phase)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * spec.period)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-stop:
				timer.Stop()
				return res
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return res
			default:
			}
		}
		path := spec.paths[i%len(spec.paths)]
		sent := time.Now()
		_, err := do(client, http.MethodGet, base+path, "", nil)
		done := time.Now()
		res.attempted++
		if err != nil {
			res.errs = append(res.errs, err)
			continue
		}
		tr.record(parent, rep, "http.get "+path, sent, done)
		res.late = append(res.late, ms(sent.Sub(due)))
		if path == spec.timed {
			res.latencies = append(res.latencies, ms(done.Sub(due)))
		}
	}
}

// replay posts the workload's price and demand batches to base, one
// price batch before the demand batch that reads it, while the poller
// reads alongside; then it fetches one checkpoint. It returns the
// replay's timing, the demand posts' and the poller's samples and the
// checkpoint body; ok is false after a failed request, which it has
// already counted.
func (r *runner) replay(rep int, tr *tracer, base string, spec pollSpec) (res repResult, body []byte, ok bool) {
	repID := tr.reserve(0, rep, "replay")
	// A rep is a few poll periods long. A poller that always started with
	// the replay would sample the same few points of it, the first one on
	// an empty engine, so each rep starts it at a seeded random phase.
	phase := time.Duration(r.phases.Int64N(int64(spec.period)))
	stop := make(chan struct{})
	polled := make(chan pollResult, 1)
	go func() { polled <- poll(r.poller, base, spec, phase, stop, tr, repID, rep) }()

	w := r.w
	t0 := time.Now()
	var err error
	posts := make([]float64, 0, len(w.demandBodies))
	for i := range w.demandBodies {
		a := time.Now()
		r.attempted++
		if _, err = do(r.ingest, http.MethodPost, base+"/v1/prices", server.ContentTypePricesBatch, w.priceBodies[i]); err != nil {
			break
		}
		b := time.Now()
		tr.record(repID, rep, "http.post /v1/prices", a, b)
		r.attempted++
		if _, err = do(r.ingest, http.MethodPost, base+"/v1/demand", server.ContentTypeDemandBatch, w.demandBodies[i]); err != nil {
			break
		}
		c := time.Now()
		tr.record(repID, rep, "http.post /v1/demand", b, c)
		posts = append(posts, ms(c.Sub(b)))
	}
	elapsed := time.Since(t0)
	close(stop)
	pr := <-polled
	r.attempted += pr.attempted
	for _, e := range pr.errs {
		r.fail("poller: %v", e)
	}
	if err != nil {
		r.fail("ingest: %v", err)
		return repResult{}, nil, false
	}

	a := time.Now()
	r.attempted++
	body, err = do(r.ingest, http.MethodGet, base+"/v1/checkpoint", "", nil)
	tr.record(repID, rep, "http.get /v1/checkpoint", a, time.Now())
	tr.close(repID, t0, time.Now())
	if err != nil {
		r.fail("checkpoint: %v", err)
		return repResult{}, nil, false
	}
	return repResult{steps: w.steps, elapsed: elapsed, posts: posts, polls: pr.latencies, late: pr.late}, body, len(pr.errs) == 0
}

// daemonRep serves a fresh engine from one daemon and replays the whole
// horizon into it; the daemon's closing bill must equal batch sim.Run's.
// Its timed request is the poller's GET /v1/status.
func daemonRep(r *runner, rep int, tr *tracer) (repResult, error) {
	sc, err := r.w.scenario()
	if err != nil {
		return repResult{}, err
	}
	eng, err := sim.NewEngine(sc)
	if err != nil {
		return repResult{}, err
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return repResult{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer r.closeServers(ts)
	out, _, ok := r.replay(rep, tr, ts.URL, daemonPoll)
	if !ok {
		return repResult{}, nil
	}
	if res, err := srv.Finalize(); !r.check("daemon result", res, err) {
		return repResult{}, nil
	}
	out.latencies = out.polls
	return out, nil
}

// coordRep serves the burst world from three lease-fed shard daemons
// behind a coordinator, replays the horizon through the coordinator, and
// restores its merged checkpoint into the joint world: that engine's
// closing bill must equal batch sim.Run's, with burst tokens spent. Its
// timed request is the demand post, which the coordinator turns into
// lease posts and a fan-out to the shards. The poller's merged status
// refreshes do not repeat well enough to gate on: 8–20% of them catch
// the shards one batch apart and retry after 50 ms, and a run holds only
// about 200 of them.
func coordRep(r *runner, rep int, tr *tracer) (repResult, error) {
	joint, err := r.w.scenario()
	if err != nil {
		return repResult{}, err
	}
	joint.BurstGate = nil
	p, err := sim.PartitionByRouting(joint.Policy.(routing.Sharder), joint.Fleet)
	if err != nil {
		return repResult{}, err
	}
	subs, err := joint.Shard(p)
	if err != nil {
		return repResult{}, err
	}
	servers := make([]*httptest.Server, 0, len(subs)+1)
	defer func() { r.closeServers(servers...) }()
	urls := make([]string, len(subs))
	for i, sub := range subs {
		store := &sim.LeaseStore{}
		sub.BurstGate = store
		eng, err := sim.NewEngine(sub)
		if err != nil {
			return repResult{}, err
		}
		srv, err := server.New(server.Config{Engine: eng, Leases: store})
		if err != nil {
			return repResult{}, err
		}
		ts := httptest.NewServer(srv.Handler())
		servers = append(servers, ts)
		urls[i] = ts.URL
	}
	coordSc, err := r.w.scenario()
	if err != nil {
		return repResult{}, err
	}
	co, err := coord.New(context.Background(), coord.Config{Scenario: coordSc, ShardURLs: urls, Client: r.fanout})
	if err != nil {
		return repResult{}, err
	}
	cts := httptest.NewServer(co.Handler())
	servers = append(servers, cts)

	out, body, ok := r.replay(rep, tr, cts.URL, coordPoll)
	if !ok {
		return repResult{}, nil
	}
	restoreSc, err := r.w.scenario()
	if err != nil {
		return repResult{}, err
	}
	res, used, err := restoreMerged(restoreSc, body)
	r.attempted++
	if err == nil && used == 0 {
		r.fail("coordinator: no burst token was used over the horizon")
	}
	if !r.check("coordinator result", res, err) || used == 0 {
		return repResult{}, nil
	}
	out.latencies = out.posts
	return out, nil
}

// restoreMerged restores a coordinator checkpoint into the joint world and
// closes its books, reporting the burst tokens its shards spent.
func restoreMerged(sc sim.Scenario, body []byte) (*sim.Result, int, error) {
	cp, err := sim.DecodeCheckpoint(bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	eng, err := sim.Restore(sc, cp)
	if err != nil {
		return nil, 0, err
	}
	var used int
	for _, l := range eng.Snapshot().BurstLeases {
		used += l.TokensUsed
	}
	res, err := eng.Finalize()
	return res, used, err
}

// closeServers shuts test servers down and drops the clients' idle
// connections to them.
func (r *runner) closeServers(servers ...*httptest.Server) {
	for _, c := range []*http.Client{r.ingest, r.poller, r.fanout} {
		c.CloseIdleConnections()
	}
	for _, ts := range servers {
		ts.Close()
	}
}
