package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe writer: run() logs from the serving
// goroutine while the test polls for the listen line.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`listening on (\S+) `)

// TestServeRouteShutdown boots the daemon on an ephemeral port with a tiny
// world, routes one interval over HTTP, then cancels the context and
// checks the graceful-shutdown summary.
func TestServeRouteShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuf
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-months", "1", "-days", "7"}, &out, &errOut)
	}()

	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; stdout %q stderr %q", out.String(), errOut.String())
		}
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Discover the world, then feed one priced, routed interval.
	var world struct {
		Start    time.Time `json:"start"`
		States   []string  `json:"states"`
		Clusters []struct {
			Hub string `json:"hub"`
		} `json:"clusters"`
	}
	resp, err = http.Get(base + "/v1/world")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&world)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prices := map[string]float64{}
	for _, cl := range world.Clusters {
		prices[cl.Hub] = 42
	}
	post := func(path string, v any) {
		t.Helper()
		body, _ := json.Marshal(v)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, msg)
		}
	}
	post("/v1/prices", map[string]any{"at": world.Start, "prices": prices})
	rates := make([]float64, len(world.States))
	for i := range rates {
		rates[i] = 1000
	}
	post("/v1/demand", map[string]any{"rates": rates})

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; stderr %q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "routed 1 intervals") {
		t.Errorf("missing shutdown summary, got %q", out.String())
	}
}

// startDaemon boots run() with the given extra args on an ephemeral port
// and returns the base URL, output buffers, a cancel func, and the exit
// channel.
func startDaemon(t *testing.T, extra ...string) (string, *syncBuf, *syncBuf, context.CancelFunc, chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var out, errOut syncBuf
	done := make(chan int, 1)
	argv := append([]string{"-addr", "127.0.0.1:0", "-months", "1", "-days", "7"}, extra...)
	go func() { done <- run(ctx, argv, &out, &errOut) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; stdout %q stderr %q", out.String(), errOut.String())
		}
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], &out, &errOut, cancel, done
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStateDirRestoreAcrossRestart: a daemon with -state-dir writes a
// checkpoint on shutdown, and a second invocation with -restore resumes at
// the routed step instead of zero. A third invocation over a different
// world must refuse the checkpoint.
func TestStateDirRestoreAcrossRestart(t *testing.T) {
	stateDir := t.TempDir()
	base, out, errOut, cancel, done := startDaemon(t, "-state-dir", stateDir, "-checkpoint-every", "0")

	var world struct {
		Start    time.Time `json:"start"`
		States   []string  `json:"states"`
		Clusters []struct {
			Hub string `json:"hub"`
		} `json:"clusters"`
	}
	resp, err := http.Get(base + "/v1/world")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&world)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prices := map[string]float64{}
	for _, cl := range world.Clusters {
		prices[cl.Hub] = 37
	}
	post := func(path string, v any) {
		t.Helper()
		body, _ := json.Marshal(v)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, msg)
		}
	}
	post("/v1/prices", map[string]any{"at": world.Start, "prices": prices})
	rates := make([]float64, len(world.States))
	for i := range rates {
		rates[i] = 800
	}
	post("/v1/demand", map[string]any{"rates": rates})
	post("/v1/demand", map[string]any{"rates": rates})

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; stderr %q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "checkpoint written to") {
		t.Fatalf("no shutdown checkpoint in %q", out.String())
	}

	base2, out2, _, cancel2, done2 := startDaemon(t, "-state-dir", stateDir, "-restore")
	if !strings.Contains(out2.String(), "restored") {
		t.Errorf("no restore line in %q", out2.String())
	}
	resp, err = http.Get(base2 + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Steps int `json:"steps"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if status.Steps != 2 {
		t.Fatalf("restored daemon at step %d, want 2", status.Steps)
	}
	cancel2()
	select {
	case <-done2:
	case <-time.After(30 * time.Second):
		t.Fatal("restored daemon did not shut down")
	}

	// A different world (2-month market) must refuse the checkpoint.
	var out3, errOut3 syncBuf
	ctx3, cancel3 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel3()
	code := run(ctx3, []string{"-addr", "127.0.0.1:0", "-months", "2", "-days", "7", "-state-dir", stateDir, "-restore"}, &out3, &errOut3)
	if code != 1 {
		t.Fatalf("foreign-world restore exited %d, want 1 (stderr %q)", code, errOut3.String())
	}
	if s := errOut3.String(); !strings.Contains(s, "mismatch") && !strings.Contains(s, "differs") {
		t.Errorf("foreign-world restore error unhelpful: %q", s)
	}
}

// TestBadInvocations covers flag and startup failures.
func TestBadInvocations(t *testing.T) {
	cases := []struct {
		argv []string
		want int
	}{
		{[]string{"-horizon", "nope"}, 2},
		{[]string{"stray-arg"}, 2},
		{[]string{"-not-a-flag"}, 2},
		{[]string{"-addr", "256.0.0.1:bad", "-months", "1", "-days", "2"}, 1},
		{[]string{"-restore"}, 2},
		{[]string{"-checkpoint-every", "-1s", "-state-dir", "x"}, 2},
		{[]string{"-state-dir", "/dev/null/nope", "-months", "1", "-days", "2"}, 1},
		// flag parses NaN; the optimizer must refuse it rather than route
		// every state's demand to cluster 0.
		{[]string{"-threshold-km", "NaN", "-months", "1", "-days", "2"}, 1},
		{[]string{"-price-threshold", "NaN", "-months", "1", "-days", "2"}, 1},
		// World-flag usage errors: the burst world is hourly and carries
		// no batch class, and malformed specs are refused.
		{[]string{"-burst-hubs", "NP15+SP15,NYC+DOM", "-batch-spec", "w=20,pct=0.3", "-months", "1", "-days", "2"}, 2},
		{[]string{"-burst-hubs", "NP15+SP15,NYC+DOM", "-horizon", "trace", "-months", "1", "-days", "2"}, 2},
		{[]string{"-burst-hubs", "NP15+SP15", "-months", "1", "-days", "2"}, 2},
		{[]string{"-burst-hubs", "NP15+SP15,NYC", "-months", "1", "-days", "2"}, 2},
		{[]string{"-batch-spec", "w=20", "-months", "1", "-days", "2"}, 2},
	}
	for _, tc := range cases {
		var out, errOut syncBuf
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		code := run(ctx, tc.argv, &out, &errOut)
		cancel()
		if code != tc.want {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.argv, code, tc.want, errOut.String())
		}
	}
}

// TestShardServing: -shard-count/-shard-index serve one routing-closed
// market region — the shard's world lists only its own clusters and
// states — and invalid shard invocations fail with usage errors.
func TestShardServing(t *testing.T) {
	base, out, _, cancel, done := startDaemon(t, "-threshold-km", "1000", "-shard-count", "2", "-shard-index", "1")
	defer cancel()

	if !strings.Contains(out.String(), "serving shard 1/2") {
		t.Errorf("missing shard banner in %q", out.String())
	}
	var world struct {
		States   []string `json:"states"`
		Clusters []struct {
			Code string `json:"code"`
		} `json:"clusters"`
	}
	resp, err := http.Get(base + "/v1/world")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&world)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// At 1000 km the second region is the California markets.
	if len(world.Clusters) != 2 {
		t.Fatalf("shard 1 serves %d clusters, want 2 (CA1, CA2): %+v", len(world.Clusters), world.Clusters)
	}
	for _, cl := range world.Clusters {
		if !strings.HasPrefix(cl.Code, "CA") {
			t.Errorf("shard 1 serves cluster %s, want only California", cl.Code)
		}
	}
	if len(world.States) == 0 || len(world.States) >= 51 {
		t.Errorf("shard 1 serves %d states, want a strict non-empty subset", len(world.States))
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shard daemon did not shut down")
	}
}

// TestShardBadInvocations: out-of-range shard indices and component
// counts the world cannot satisfy are usage errors.
func TestShardBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-months", "1", "-days", "7", "-shard-count", "2", "-shard-index", "2"},
		{"-months", "1", "-days", "7", "-shard-count", "0"},
		{"-months", "1", "-days", "7", "-shard-index", "-1"},
		// The paper's 1500 km reach spans one region; a 2-way split must
		// name the achievable component count.
		{"-months", "1", "-days", "7", "-shard-count", "2"},
	}
	for _, argv := range cases {
		var out, errOut syncBuf
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		code := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, argv...), &out, &errOut)
		cancel()
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", argv, code, errOut.String())
		}
	}
}
