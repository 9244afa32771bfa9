package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatch holds BENCHMARK.json, the harness's metric lists
// and its workload table to one set of names, units and limits.
func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16/128", len(d.EndToEnd), len(d.PerLayer))
	}
	for _, lists := range []struct {
		declared []declaredMetric
		harness  []metricSpec
	}{{d.EndToEnd, endToEnd}, {d.PerLayer, perLayer}} {
		if len(lists.declared) != len(lists.harness) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the harness prints %d", len(lists.declared), len(lists.harness))
		}
		for i, m := range lists.declared {
			if m.Name != lists.harness[i].name || m.Unit != lists.harness[i].unit {
				t.Errorf("metric %d: declared %s [%s], harness %s [%s]", i, m.Name, m.Unit, lists.harness[i].name, lists.harness[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q [%q] breaks the name or unit grammar", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range d.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) || w.Why == "" {
			t.Errorf("workload %d: declared %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsSmoke runs every workload once untraced and once traced,
// each for the shortest run (one rep per phase). Every run must pass all
// of its output checks — each rep equal to batch sim.Run, the daemon's
// closing bill, the coordinator's restored merge, the harness loop and
// its shadow stages, the digest recorded for seed 42 — and print exactly
// the declared metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl.name, "--seed", "42", "--seconds", "0", "--trace", trace, "--spans", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				checkOutput(t, stdout.String(), want)
				if trace == "1" {
					checkSpans(t, spans)
				}
			})
		}
	}
}

func checkOutput(t *testing.T, out string, want []metricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var summary struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out)
	}
	if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
		t.Fatalf("summary correct=%v attempted=%d failed=%d", summary.Correct, summary.Attempted, summary.Failed)
	}
	var printed []string
	for _, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("line %q is not `name value unit`", line)
		}
		printed = append(printed, fields[0]+" "+fields[2])
	}
	if len(printed) != len(want) || len(summary.Metrics) != len(want) {
		t.Fatalf("printed %d lines and %d JSON metrics, want %d", len(printed), len(summary.Metrics), len(want))
	}
	for i, m := range want {
		if printed[i] != m.name+" "+m.unit {
			t.Errorf("line %d: %q, want %q", i, printed[i], m.name+" "+m.unit)
		}
		if got, ok := summary.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("JSON metric %s missing or unit %q", m.name, got.Unit)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n+1, err)
		}
		if s.ID != n+1 || s.Parent >= s.ID || s.Name == "" || s.End < s.Start {
			t.Fatalf("malformed span %+v", s)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no spans written")
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "engine-hourly", "--trace", "2"},
		{"--workload", "engine-hourly", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
