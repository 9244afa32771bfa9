// powerroute-vet runs the repo's custom static analyzers (internal/lint):
// maprange, wallclock, ckptfield, and lockcheck — the checks that keep
// the simulation bit-for-bit reproducible and the checkpoint complete.
//
// Usage:
//
//	powerroute-vet ./...
//
// It loads the named packages (go list syntax) from the current
// directory through internal/lint/load, the loader the analyzers' own
// tests use, runs every analyzer over each package's non-test files,
// and prints the findings sorted by position; the exit status is 1 if
// there are any.
package main

import (
	"fmt"
	"go/token"
	"os"
	"sort"

	"powerroute/internal/lint"
	"powerroute/internal/lint/analysis"
	"powerroute/internal/lint/load"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: powerroute-vet <packages>   (e.g. powerroute-vet ./...)")
		os.Exit(2)
	}
	pkgs, err := load.Load(".", os.Args[1:]...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powerroute-vet: %v\n", err)
		os.Exit(1)
	}
	total := 0
	for _, p := range pkgs {
		found, err := runAnalyzers(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "powerroute-vet: %v\n", err)
			os.Exit(1)
		}
		total += report(found)
	}
	if total > 0 {
		os.Exit(1)
	}
}

// finding is one diagnostic, tagged with the analyzer that reported it.
type finding struct {
	pos  token.Position
	text string
}

// runAnalyzers runs the whole suite over one package.
func runAnalyzers(p *load.Package) ([]finding, error) {
	var found []finding
	for _, a := range lint.Analyzers() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			found = append(found, finding{p.Fset.Position(d.Pos), fmt.Sprintf("[%s] %s", a.Name, d.Message)})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, p.ImportPath, err)
		}
	}
	return found, nil
}

// report prints findings sorted by position and returns the count.
func report(found []finding) int {
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return found[i].text < found[j].text
	})
	for _, f := range found {
		fmt.Fprintf(os.Stderr, "%s: %s\n", f.pos, f.text)
	}
	return len(found)
}
