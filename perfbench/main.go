// Command perfbench is the repository's benchmark: one process that runs a
// workload against the simulator's public API for a fixed time, checks the
// outputs, and prints one JSON result line.
//
//	perfbench --workload fig10-seq --seed 1 --seconds 25 --trace 0
//	perfbench steady --runs 5
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced, then again under a CPU profile, then once with
// spans around every call into the program, and prints the per-layer
// metrics (see tracedPhase). The steady subcommand measures run-to-run
// spread (see steady.go). README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// outDir receives span and profile files of traced runs, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench-out"

// result is the last line the benchmark prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// run is one invocation's state: the settings, the two metric sets (the one
// matching --trace is printed), operation counts and check failures.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool

	e2e   metricSet // end-to-end metrics, measured untraced
	layer metricSet // per-layer metrics, measured in the traced phase
	extra metricSet // traced-phase figures of one workload only, printed to stderr
	tr    *tracer   // nil outside the traced phase

	attempted, failed int
	fails             []string

	setups      []float64 // seconds per set-up repetition
	repeatSetup func()    // repeats the set-up before each timed round

	tracedRounds int           // rounds the traced phase ran
	runnerIdle   time.Duration // fig10-par-serve: summed over traced rounds
}

// check records a failed output check.
func (r *run) check(err error) {
	if err != nil {
		r.fails = append(r.fails, err.Error())
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"fig10-seq":       runFig10Seq,
	"fig10-par-serve": runParServe,
	"fuzz-xval":       runFuzz,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "fig10-seq, fig10-par-serve or fuzz-xval")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "how long the timed part runs (whole rounds, at least one)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, e2e: metricSet{}, layer: metricSet{}, extra: metricSet{}}
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range r.fails {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
	}
	res := result{Correct: len(r.fails) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	want := endToEnd
	if r.traced {
		res.Metrics, want = r.layer, perLayer
		if b, err := json.Marshal(r.extra); err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: workload-specific per-layer figures: %s\n", r.workload, b)
		}
	}
	if err := res.Metrics.matches(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", r.workload+":", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// round is one timed repetition of a workload's operations.
type round struct {
	wall  time.Duration
	cpu   time.Duration // process CPU time during the round
	alloc uint64        // bytes allocated during the round
	ops   int           // operations attempted during the round
}

// timedRounds runs fn in whole rounds until r.seconds of round time have
// passed, at least once; fn returns the time its operations took. Before
// each round it repeats the workload's set-up (not counted in the round),
// so that setup_s is a median over the whole run, and it collects the heap,
// so that every round starts from the same state.
func (r *run) timedRounds(fn func() (time.Duration, error)) ([]round, error) {
	var rounds []round
	var ms runtime.MemStats
	var spent time.Duration
	for len(rounds) == 0 || spent < r.seconds {
		if r.repeatSetup != nil {
			r.repeatSetup()
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before, cpuBefore, opsBefore := ms.TotalAlloc, processCPU(), r.attempted
		wall, err := fn()
		if err != nil {
			return nil, err
		}
		cpu := processCPU() - cpuBefore
		spent += wall
		runtime.ReadMemStats(&ms)
		rounds = append(rounds, round{wall: wall, cpu: cpu, alloc: ms.TotalAlloc - before,
			ops: r.attempted - opsBefore})
	}
	walls := make([]string, len(rounds))
	for i, x := range rounds {
		walls[i] = fmt.Sprintf("%.3f/%.3f", x.wall.Seconds(), x.cpu.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds, wall/cpu s: %s\n", r.workload, len(rounds), strings.Join(walls, " "))
	return rounds, nil
}

// medianAllocMB, medianOpsPerS and medianCPUMsPerOp summarize rounds.
func medianAllocMB(rs []round) float64 {
	xs := make([]float64, len(rs))
	for i, x := range rs {
		xs[i] = float64(x.alloc) / 1e6
	}
	return median(xs)
}

func medianOpsPerS(rs []round) float64 {
	xs := make([]float64, len(rs))
	for i, x := range rs {
		xs[i] = float64(x.ops) / x.wall.Seconds()
	}
	return median(xs)
}

func medianCPUMsPerOp(rs []round) float64 {
	xs := make([]float64, len(rs))
	for i, x := range rs {
		xs[i] = ms(x.cpu) / float64(x.ops)
	}
	return median(xs)
}

// setUp times one repetition of the workload's set-up.
func (r *run) setUp(fn func()) {
	t0 := time.Now()
	fn()
	r.setups = append(r.setups, time.Since(t0).Seconds())
}

// recordE2E records the end-to-end metrics from the untraced rounds:
// setup_s, the median of every set-up repetition so far; cpu_ms_per_op, the
// median over rounds of process CPU time per operation attempted; and
// alloc_mb, the median bytes a round allocates. Operations per second of
// wall time go to stderr: on a host that preempts the benchmark's virtual
// CPUs in bursts they measure the host more than the program.
func (r *run) recordE2E(rounds []round) {
	r.e2e.add("setup_s", median(r.setups), "s")
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d set-ups, s: min %.4f median %.4f max %.4f\n", r.workload,
		len(r.setups), quantile(r.setups, 0), median(r.setups), quantile(r.setups, 1))
	r.e2e.add("cpu_ms_per_op", medianCPUMsPerOp(rounds), "ms")
	r.e2e.add("alloc_mb", medianAllocMB(rounds), "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %s: ops_per_s (wall) %.4f\n", r.workload, medianOpsPerS(rounds))
}

// tracedPhase measures the per-layer metrics after the untraced rounds.
// First it repeats the workload's own rounds (roundFn, the same code path
// the end-to-end metrics time) under a CPU profile and a fresh tracer, and
// records the profile's per-layer CPU buckets and the tracing overhead:
// the median CPU time per operation of these rounds over that of the
// untraced ones, minus one. Then, where the workload's own path cannot carry spans around each
// call into the program, spanPass runs the same operations once through the
// layers' entry points, unprofiled, for span latencies and work counts.
// Finally it records the span self times and writes spans and profile under
// outDir.
func (r *run) tracedPhase(untraced []round, roundFn func() (time.Duration, error), spanPass func() error) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	defer f.Close()
	r.tr = newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	traced, err := r.timedRounds(roundFn)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	r.tracedRounds = len(traced)
	if err := f.Close(); err != nil {
		return err
	}
	raw, err := os.ReadFile(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return err
	}
	if len(prof.stacks) == 0 {
		return errors.New("traced run: CPU profile holds no samples")
	}
	b := prof.buckets()
	other := 0.0
	known := map[string]bool{"runtime": true, "bench": true}
	for _, l := range programLayers {
		known[l] = true
	}
	for l, v := range b {
		if !known[l] {
			other += v
		}
	}
	b["other"] = other
	for _, l := range append(programLayers, "runtime", "bench", "other") {
		m := r.extra
		if sharedLayers[l] {
			m = r.layer
		}
		m.add(l+".cpu_s", b[l], "s")
	}
	r.layer.add("bench.trace_overhead_pct",
		100*(medianCPUMsPerOp(traced)/medianCPUMsPerOp(untraced)-1), "%")

	if spanPass != nil {
		if err := spanPass(); err != nil {
			return err
		}
	}
	self := selfTimes(r.tr.spans)
	for _, l := range spanLayers {
		if d, ok := self[l]; ok {
			r.extra.add(l+".self_s", d.Seconds(), "s")
		}
	}
	return r.tr.write(base + ".spans.json")
}

// programLayers are the program's modules that host time is split across.
var programLayers = []string{"trace", "sim", "core", "mem", "sched", "noc", "predictor",
	"runner", "serve", "fuzz", "checker", "axiomatic", "litmus"}

// sharedLayers are the layers every workload spends CPU time in; their
// cpu_s buckets are per-layer metrics. The other buckets are zero on some
// workload and go to the workload-specific figures.
var sharedLayers = map[string]bool{"sim": true, "core": true, "mem": true, "sched": true,
	"predictor": true, "runtime": true}

// spanLayers are the layers the benchmark records spans for; "bench" is the
// benchmark's own root span per job, sweep or program.
var spanLayers = []string{"bench", "trace", "sim", "serve", "runner", "fuzz", "checker",
	"axiomatic", "litmus"}
