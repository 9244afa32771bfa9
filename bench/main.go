// Command powerroute-bench is the repository benchmark: it builds one
// workload's world from core.NewSystem with the given seed, runs whole
// reps of the workload for a fixed time, checks every output against a
// batch sim.Run of the same scenario, and prints each metric as
// `name value unit` followed by one JSON summary line.
//
//	powerroute-bench --workload engine-hourly --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// spends half the time on untraced reps and half on traced ones, prints
// the per-layer metrics, and writes the traced spans as JSON lines. See
// README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"powerroute/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupRuns is how many times a run builds its world; setup_s is the
// median, so one slow build does not move it.
const setupRuns = 5

type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; the smoke test holds the two lists equal.
var (
	endToEnd = []metricSpec{
		{"setup_s", "s"},
		{"steps_per_s", "steps/s"},
		{"latency_p90_ms", "ms"},
		{"mem_peak_mb", "MB"},
	}
	perLayer = []metricSpec{
		// The median latency does not repeat within 0.20 on daemon-replay
		// (see the README), so it is reported here, without a bound.
		{"latency_p50_ms", "ms"},
		{"core.new_system_s", "s"},
		{"bench.verify_s", "s"},
		{"traffic.rates_ns_per_step", "ns"},
		{"timeseries.lookup_ns_per_step", "ns"},
		{"sim.new_engine_ms", "ms"},
		{"sim.step_ns_per_step", "ns"},
		{"sim.step_other_ns_per_step", "ns"},
		{"sim.finalize_ms", "ms"},
		{"routing.allocate_ns_per_call", "ns"},
		{"routing.rerank_ratio", "ratio"},
		{"energy.power_ns_per_call", "ns"},
		{"energy.util_repeat_ratio", "ratio"},
		{"stats.hist_add_ns_per_call", "ns"},
		{"billing.meter_record_ns_per_call", "ns"},
		{"storage.action_ns_per_call", "ns"},
		{"server.decode_ns_per_row", "ns"},
		{"server.status_render_us", "us"},
		{"server.metrics_render_us", "us"},
		{"sim.checkpoint_capture_ms", "ms"},
		{"sim.checkpoint_encode_ms", "ms"},
		{"sim.checkpoint_decode_ms", "ms"},
		{"sim.restore_ms", "ms"},
		{"sim.checkpoint_bytes", "bytes"},
		{"go.alloc_bytes_per_step", "bytes"},
		{"go.gc_cycles_per_rep", "count"},
		{"bench.calib_mops", "Mop/s"},
		{"trace.overhead", "ratio"},
		{"trace.coverage", "ratio"},
	}
)

// digests holds the SHA-256 of each workload's final Result for the
// seeds it was recorded at (see digestOf).
//
//go:embed digests.json
var digestsJSON []byte

// metricSet collects samples per metric; each reports its median.
type metricSet map[string][]float64

func (m metricSet) add(name string, v float64) { m[name] = append(m[name], v) }

// runner holds one run's state: the world, the load clients, the
// correctness ledger, and the samples behind every metric.
type runner struct {
	wl *workload
	w  *world
	tr *tracer // non-nil in a --trace 1 run

	ingest, poller, fanout *http.Client
	phases                 *rand.Rand // the poller's start in each rep, from the seed
	cal                    calibrator

	refDigest string
	attempted int
	failed    int
	stderr    io.Writer
	notes     []string // printed as # lines before the metrics
	layer     metricSet
}

// repResult is what one rep reports. A rep whose output check or request
// failed reports zero steps and is left out of the metrics.
type repResult struct {
	steps     int
	elapsed   time.Duration // the rep's timed part
	latencies []float64     // ms, each timed request's latency: posts or polls
	posts     []float64     // ms, each demand batch post
	polls     []float64     // ms, each of the poller's timed GETs, from its due time
	late      []float64     // ms each poller request was sent after its due time
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(r.stderr, "powerroute-bench: FAIL "+format+"\n", args...)
	}
}

// check counts one output check: res must exist and match the reference
// result bit for bit. It reports whether it passed.
func (r *runner) check(what string, res *sim.Result, err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	if d, err := digestOf(res); err != nil || d != r.refDigest {
		r.fail("%s: digest %s, reference %s (%v)", what, d, r.refDigest, err)
		return false
	}
	return true
}

// digestOf is the SHA-256 of a Result's JSON encoding, which spells out
// every float exactly.
func digestOf(res *sim.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	origin := time.Now()
	fs := flag.NewFlagSet("powerroute-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 42, "world seed")
	seconds := fs.Float64("seconds", 20, "measured time; whole reps run until it is reached")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	spans := fs.String("spans", "", "where a --trace 1 run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := workloadByName(*name)
	if wl == nil || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*seconds >= 0) {
		fmt.Fprintf(stderr, "powerroute-bench: want --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	r := &runner{
		wl: wl, stderr: stderr, layer: metricSet{},
		ingest: newClient(1), poller: newClient(1), fanout: newClient(2),
		phases: rand.New(rand.NewPCG(uint64(*seed), 0)),
	}
	if *trace == 1 {
		r.tr = newTracer(origin)
	}
	out, err := r.measure(*seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(stderr, "powerroute-bench:", err)
		return 2
	}
	if r.tr != nil {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", wl.name, *seed)
		}
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "powerroute-bench: spans:", err)
			return 2
		}
		r.notes = append(r.notes, fmt.Sprintf("%d spans written to %s", len(r.tr.spans), path))
	}
	r.notes = append(r.notes, "reference result sha256 "+r.refDigest)
	for _, note := range r.notes {
		fmt.Fprintln(stdout, "#", note)
	}
	specs := endToEnd
	if r.tr != nil {
		specs = perLayer
	}
	printed := make(map[string]map[string]any, len(specs))
	for _, s := range specs {
		v, ok := out[s.name]
		if !ok {
			fmt.Fprintf(stderr, "powerroute-bench: no value for %s\n", s.name)
			return 2
		}
		fmt.Fprintf(stdout, "%s %s %s\n", s.name, strconv.FormatFloat(v, 'g', -1, 64), s.unit)
		printed[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	summary, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, printed})
	if err != nil {
		fmt.Fprintln(stderr, "powerroute-bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(summary))
	if r.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, "|")
}

// measure runs the set-up, the reference check, and the timed reps, and
// returns every metric's value by name.
func (r *runner) measure(seed int64, seconds time.Duration) (map[string]float64, error) {
	out := map[string]float64{}

	// Every set-up and every untraced rep is timed between two machine
	// calibrations and scaled to the reference speed (see calib.go).
	var setups, rawSetups, systems []float64
	for i := 0; i < setupRuns; i++ {
		r.w = nil
		runtime.GC()
		var w *world
		var d float64
		scale, err := r.cal.bracket(func() (err error) {
			t0 := time.Now()
			w, err = r.wl.setup(seed)
			d = time.Since(t0).Seconds()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*scale)
		systems = append(systems, w.newSystem.Seconds())
		r.w = w
	}
	out["core.new_system_s"] = median(systems)

	t0 := time.Now()
	if err := r.reference(seed); err != nil {
		return nil, err
	}
	out["bench.verify_s"] = time.Since(t0).Seconds()

	// The untraced phase: the whole run, or its first half when tracing.
	untraced := seconds
	if r.tr != nil {
		untraced = seconds / 2
	}
	// Allocation is read inside each rep, so the calibrations' own
	// allocation stays out of it.
	gc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var allocBytes, gcCycles uint64
	// Times and latencies at the reference speed, then as measured.
	var times, latencies, rawLatencies, polls, late []float64
	var routed int
	var scaledSec, rawSec float64
	// Each rep's peak resident set, when the high-water mark can be reset
	// before it; otherwise mem_peak_mb is the whole run's peak.
	var peaks []float64
	perRepPeak := true
	if err := resetPeakRSS(); err != nil {
		perRepPeak = false
		r.notes = append(r.notes, fmt.Sprintf("mem_peak_mb is the whole run's peak: %v", err))
	}
	r.cal.measure()
	deadline := time.Now().Add(untraced)
	reps := 0
	for ; reps == 0 || time.Now().Before(deadline); reps++ {
		var res repResult
		var peak float64
		scale, err := r.cal.bracket(func() (err error) {
			metrics.Read(gc)
			bytes0, cycles0 := gc[0].Value.Uint64(), gc[1].Value.Uint64()
			if perRepPeak {
				if err := resetPeakRSS(); err != nil {
					return err
				}
			}
			res, err = r.wl.rep(r, reps, nil)
			if err != nil {
				return err
			}
			if perRepPeak {
				if peak, err = peakRSSMB(); err != nil {
					return err
				}
			}
			metrics.Read(gc)
			allocBytes += gc[0].Value.Uint64() - bytes0
			gcCycles += gc[1].Value.Uint64() - cycles0
			return nil
		})
		if err != nil {
			return nil, err
		}
		if res.steps == 0 {
			continue
		}
		peaks = append(peaks, peak)
		sec := res.elapsed.Seconds()
		routed += res.steps
		rawSec += sec
		scaledSec += sec * scale
		times = append(times, sec*scale)
		for _, v := range res.latencies {
			latencies = append(latencies, v*scale)
			rawLatencies = append(rawLatencies, v)
		}
		for _, v := range res.polls {
			polls = append(polls, v*scale)
		}
		late = append(late, res.late...)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("no rep passed its output check")
	}
	// The step rate is all routed steps over all rep time at the reference
	// speed, not a median of per-rep rates. A stall of the machine costs a
	// rep whenever it lands in one, but a 4 ms calibration only rarely, so
	// in a loaded phase the median per-rep rate reads low; in the sums a
	// calibration that does catch a stall lowers the scale of its two reps
	// and balances the stalls the reps took. Over two sets of ten seeds,
	// this cut the spread on engine-5min-full from 0.068–0.083 to
	// 0.031–0.060 and on daemon-replay from 0.035–0.039 to 0.020–0.038.
	stepsPerS := float64(routed) / scaledSec
	r.notes = append(r.notes, fmt.Sprintf("%d untraced reps, %d latency samples", reps, len(latencies)))
	if len(late) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("poller behind schedule: p99 %.3f ms over %d requests", percentile(late, 0.99), len(late)))
	}

	if r.tr != nil {
		steps := float64(reps * r.w.steps)
		out["go.alloc_bytes_per_step"] = float64(allocBytes) / steps
		out["go.gc_cycles_per_rep"] = float64(gcCycles) / float64(reps)
		traced, perStep, err := r.traced(seconds - untraced)
		if err != nil {
			return nil, err
		}
		for name, samples := range r.layer {
			out[name] = median(samples)
		}
		out["trace.overhead"] = median(traced) / median(times)
		out["trace.coverage"] = median(perStep) * stepsPerS
	}

	speed := r.cal.speed()
	out["bench.calib_mops"] = speed
	out["setup_s"] = median(setups)
	out["steps_per_s"] = stepsPerS
	// The gated latency is the 90th percentile: on daemon-replay the
	// median sits where waiting out a demand batch takes over from the
	// free lock, and moves with the share of time the lock is held.
	out["latency_p50_ms"] = percentile(latencies, 0.50)
	out["latency_p90_ms"] = percentile(latencies, 0.90)
	r.notes = append(r.notes, fmt.Sprintf("machine speed %.2f Mop/s over %d samples (reference %g); as measured: setup %.4f s, %.0f steps/s, latency p50 %.3f ms, p90 %.3f ms",
		speed, len(r.cal.samples), float64(refCalibMops), median(rawSetups), float64(routed)/rawSec, percentile(rawLatencies, 0.50), percentile(rawLatencies, 0.90)))
	r.notes = append(r.notes, "latency "+tailNote(latencies))
	if len(polls) > 0 {
		r.notes = append(r.notes, "poller GETs "+tailNote(polls))
	}

	// The peak of one rep is a single garbage collector cycle's overshoot,
	// which some reps take several MB higher than the rest; the median
	// over reps leaves those out.
	if perRepPeak {
		out["mem_peak_mb"] = median(peaks)
		r.notes = append(r.notes, fmt.Sprintf("peak resident set per rep: median %.2f MB, highest %.2f MB", median(peaks), percentile(peaks, 1)))
	} else {
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out["mem_peak_mb"] = peak
	}
	return out, nil
}

// resetPeakRSS sets the process's peak resident set (VmHWM) back to its
// current resident set, so that peakRSSMB reads the peak since the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// reference computes the batch sim.Run every rep must reproduce, checks
// it against the digest recorded for this seed, and checks that the
// workload's features actually ran.
func (r *runner) reference(seed int64) error {
	sc, err := r.w.scenario()
	if err != nil {
		return err
	}
	res, err := sim.Run(sc)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if r.refDigest, err = digestOf(res); err != nil {
		return err
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	r.attempted++
	if want, ok := recorded[r.wl.name][strconv.FormatInt(seed, 10)]; ok && want != r.refDigest {
		r.fail("reference result digest %s, recorded %s", r.refDigest, want)
	}
	if r.wl.features != nil {
		r.attempted++
		if err := r.wl.features(res); err != nil {
			r.fail("%v", err)
		}
	}
	return nil
}

// traced spends the second half of a --trace 1 run. The daemon workloads
// first run traced reps (HTTP spans around every request); then every
// workload runs layer passes, whose timed loops are the engine
// workloads' traced reps. Both are timed between calibrations like the
// untraced reps, and it returns the traced reps' times and the layer
// passes' engine time per step, at the reference speed.
func (r *runner) traced(budget time.Duration) (traced, perStep []float64, err error) {
	rep := 0
	if r.wl.http {
		deadline := time.Now().Add(budget / 2)
		for first := true; first || time.Now().Before(deadline); first = false {
			var res repResult
			scale, err := r.cal.bracket(func() (err error) {
				res, err = r.wl.rep(r, rep, r.tr)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			if res.steps > 0 {
				traced = append(traced, res.elapsed.Seconds()*scale)
			}
			rep++
		}
		budget /= 2
	}
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		var lt layerTiming
		scale, err := r.cal.bracket(func() (err error) {
			lt, err = r.layerPass(rep)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("layer pass: %w", err)
		}
		if !r.wl.http {
			traced = append(traced, lt.engine.Seconds()*scale)
		}
		perStep = append(perStep, lt.perStep*scale)
		rep++
	}
	return traced, perStep, nil
}

// tailNote gives the median and the highest percentile with at least ten
// samples beyond it, with the sample count.
func tailNote(xs []float64) string {
	note := fmt.Sprintf("p50 %.3f ms", percentile(xs, 0.50))
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if beyond := int((1 - q) * float64(len(xs))); beyond >= 10 {
			note += fmt.Sprintf(", p%g %.3f ms", 100*q, percentile(xs, q))
			break
		}
	}
	return fmt.Sprintf("%s at the reference speed (%d samples)", note, len(xs))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics; it returns
// NaN for no samples, which fails the JSON encoding loudly.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
