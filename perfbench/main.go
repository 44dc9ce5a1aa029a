// Command perfbench is planarcert's layered benchmark. One process runs
// one workload for a fixed time, checks every output it gets, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end numbers, the same names
// on every workload; with --trace 1 the run also records spans around the
// calls it makes into each planarcert module and prints per-layer numbers
// instead. Either way the line holds exactly the metrics BENCHMARK.json
// declares for it, in their units. Build and
// run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// stateDir holds everything a run writes, relative to the checkout root
// the benchmark is started from.
const stateDir = ".perfbench"

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runner) (*result, error){
	"certify":       runCertify,
	"session-churn": runChurn,
	"serve":         runServe,
	"crash-boot":    runCrashBoot,
}

// manifestPath is the benchmark's manifest, relative to the checkout root.
const manifestPath = "BENCHMARK.json"

// declared is a metric as BENCHMARK.json declares it.
type declared struct{ Name, Unit string }

// manifest is the part of BENCHMARK.json the result line must match.
type manifest struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// runner is what a workload gets: its seed, run length, a private work
// directory and, on a traced run, the span recorder.
type runner struct {
	seed    int64
	dur     time.Duration
	workDir string
	tr      *tracer // nil on an untraced run
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload measured: operation counts, the end-to-end
// metrics and (on a traced run) the per-layer metrics.
type result struct {
	attempted, failed int
	e2e, layer        map[string]metric
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// reportOps writes the end-to-end metrics a workload measures itself:
// its set-up time, the median of its operation times (in ms, in the
// order they ran) and its throughput.
func (r *result) reportOps(setupS float64, opMs []float64) {
	r.e2e["setup_s"] = metric{setupS, "s"}
	r.e2e["op_p50_ms"] = metric{median(opMs), "ms"}
	r.e2e["ops_per_s"] = metric{blockRate(opMs, blockMs), "1/s"}
}

// fail counts one failed operation and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// check counts one attempted check and, when ok is false, one failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: certify, session-churn, serve or crash-boot")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(stateDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &runner{seed: *seed, dur: time.Duration(*seconds) * time.Second, workDir: work}
	if *trace == 1 {
		r.tr = newTracer()
	}
	res, err := run(r)
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing work dir:", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	metrics := res.e2e
	if r.tr != nil {
		metrics = res.layer
		path := filepath.Join(stateDir, "trace-"+*workload+".jsonl")
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		metrics["peak_rss_mb"] = metric{rss, "MB"}
		metrics["ok_frac"] = metric{float64(res.attempted-res.failed) / float64(res.attempted), "frac"}
	}
	if err := matchManifest(metrics, r.tr != nil); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// matchManifest checks metrics against the end-to-end (untraced) or
// per-layer (traced) metrics BENCHMARK.json declares: the same names in
// the same units. Every workload measures every end-to-end metric. A
// per-layer metric of a layer the workload does not run is added as 0:
// that layer does no work there.
func matchManifest(metrics map[string]metric, traced bool) error {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	want := m.EndToEnd
	if traced {
		want = m.PerLayer
	}
	for _, d := range want {
		got, ok := metrics[d.Name]
		switch {
		case !ok && traced:
			metrics[d.Name] = metric{0, d.Unit}
		case !ok:
			return fmt.Errorf("no %s measured", d.Name)
		case got.Unit != d.Unit:
			return fmt.Errorf("%s measured in %s, declared in %s", d.Name, got.Unit, d.Unit)
		}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared in %s", len(metrics), len(want), manifestPath)
	}
	return nil
}

// setup runs build reps times and returns the median duration in
// seconds. Each call must leave the workload ready to measure, so the
// state of the last call is the one measured.
func setup(reps int, build func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	runtime.GC() // measure from a collected heap, not the discarded set-ups' garbage
	return median(secs), nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
