package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerroute/internal/core"
)

// TestRunTinyHorizon exports a one-month, one-day world and checks the
// expected trace files land on disk with content.
func TestRunTinyHorizon(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(core.Options{Seed: 1, MarketMonths: 1, TraceDays: 1}, dir, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "demand_5min.csv") {
		t.Errorf("missing summary line, got %q", out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rt, da int
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", e.Name())
		}
		switch {
		case strings.HasPrefix(e.Name(), "rt_"):
			rt++
		case strings.HasPrefix(e.Name(), "da_"):
			da++
		}
	}
	if rt == 0 || da == 0 {
		t.Errorf("expected rt_ and da_ price files, got %d and %d", rt, da)
	}
	if _, err := os.Stat(filepath.Join(dir, "demand_5min.csv")); err != nil {
		t.Errorf("demand trace missing: %v", err)
	}
}
