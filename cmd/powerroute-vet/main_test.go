package main

import (
	"path/filepath"
	"testing"

	"powerroute/internal/lint/load"
)

// TestRepoIsClean runs the command's driver over the whole module: the
// invariants powerroute-vet enforces must hold in the code that ships
// it. A failure here means a determinism or checkpoint-coverage
// regression landed (or needs an annotation with a justification).
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, p := range pkgs {
		found, err := runAnalyzers(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range found {
			t.Errorf("%s: %s", f.pos, f.text)
		}
	}
}
