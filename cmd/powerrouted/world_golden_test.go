package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/world/*.json from the running daemon")

// worldGoldenCases are the flag sets the CI drills start powerrouted with
// (whole world and every shard of each split), plus the 5-minute trace
// horizon. startDaemon shrinks each to a 1-month market and a 7-day trace.
var worldGoldenCases = []struct {
	name string
	argv []string
}{
	{"default", nil},
	{"trace", []string{"-horizon", "trace"}},
	{"km1000", []string{"-threshold-km", "1000"}},
	{"km1000-shard0of2", []string{"-threshold-km", "1000", "-shard-count", "2", "-shard-index", "0"}},
	{"km1000-shard1of2", []string{"-threshold-km", "1000", "-shard-count", "2", "-shard-index", "1"}},
	{"km600", []string{"-threshold-km", "600"}},
	{"km600-shard0of3", []string{"-threshold-km", "600", "-shard-count", "3", "-shard-index", "0"}},
	{"km600-shard1of3", []string{"-threshold-km", "600", "-shard-count", "3", "-shard-index", "1"}},
	{"km600-shard2of3", []string{"-threshold-km", "600", "-shard-count", "3", "-shard-index", "2"}},
	{"batch", []string{"-batch-spec", "w=20,pct=0.3"}},
	{"batch-km1000", []string{"-threshold-km", "1000", "-batch-spec", "w=20,pct=0.3"}},
	{"batch-km1000-shard0of2", []string{"-threshold-km", "1000", "-shard-count", "2", "-shard-index", "0", "-batch-spec", "w=20,pct=0.3"}},
	{"batch-km1000-shard1of2", []string{"-threshold-km", "1000", "-shard-count", "2", "-shard-index", "1", "-batch-spec", "w=20,pct=0.3"}},
	{"burst2", []string{"-threshold-km", "1000", "-burst-hubs", "NP15+SP15,NYC+DOM"}},
	{"burst2-shard0of2", []string{"-threshold-km", "1000", "-burst-hubs", "NP15+SP15,NYC+DOM", "-shard-count", "2", "-shard-index", "0"}},
	{"burst2-shard1of2", []string{"-threshold-km", "1000", "-burst-hubs", "NP15+SP15,NYC+DOM", "-shard-count", "2", "-shard-index", "1"}},
	{"burst3", []string{"-threshold-km", "600", "-burst-hubs", "NP15+SP15,ERN+ERS,NYC+DOM"}},
	{"burst3-shard0of3", []string{"-threshold-km", "600", "-burst-hubs", "NP15+SP15,ERN+ERS,NYC+DOM", "-shard-count", "3", "-shard-index", "0"}},
	{"burst3-shard1of3", []string{"-threshold-km", "600", "-burst-hubs", "NP15+SP15,ERN+ERS,NYC+DOM", "-shard-count", "3", "-shard-index", "1"}},
	{"burst3-shard2of3", []string{"-threshold-km", "600", "-burst-hubs", "NP15+SP15,ERN+ERS,NYC+DOM", "-shard-count", "3", "-shard-index", "2"}},
}

// TestWorldGolden pins the world every served flag set builds: each case
// starts the daemon and compares its GET /v1/world body — policy, step,
// reaction delay, clusters with capacities, states, burst flags and the
// world hash over prices, soft caps and batch gates — byte for byte with
// testdata/world/<case>.json. Regenerate with `go test ./cmd/powerrouted
// -run TestWorldGolden -update` only when the served world is meant to
// change.
func TestWorldGolden(t *testing.T) {
	for _, tc := range worldGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			base, _, errOut, cancel, done := startDaemon(t, tc.argv...)
			resp, err := http.Get(base + "/v1/world")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/world: %d: %s", resp.StatusCode, got)
			}
			cancel()
			select {
			case code := <-done:
				if code != 0 {
					t.Fatalf("exit %d; stderr %q", code, errOut.String())
				}
			case <-time.After(30 * time.Second):
				t.Fatal("daemon did not shut down")
			}

			path := filepath.Join("testdata", "world", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/powerrouted -run TestWorldGolden -update` to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v serves a different world:\ngot  %s\nwant %s", tc.argv, got, want)
			}
		})
	}
}
