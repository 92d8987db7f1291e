package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sesa"
	"sesa/internal/trace"
)

// fig10 is a Fig. 10 sweep: every profile of one suite on every machine,
// with traces generated from the run's seed.
type fig10 struct {
	suite    sesa.Suite
	profiles []sesa.Profile
	models   []sesa.Model
	n        int    // instructions per core
	seed     uint64 // trace seed
	cores    int
	want     []counts  // per profile, counted from its traces
	builds   []float64 // seconds per set-up repetition spent in trace generation
}

func newFig10(suite sesa.Suite, n int, seed uint64) *fig10 {
	f := &fig10{suite: suite, models: sesa.AllModels(), n: n, seed: seed,
		cores: sesa.DefaultConfig(sesa.X86).Cores}
	if suite == sesa.ParallelSuite {
		f.profiles = sesa.ParallelProfiles()
	} else {
		f.profiles = sesa.SequentialProfiles()
	}
	return f
}

// jobs is the profile-major job grid of a set of profiles.
func (f *fig10) jobs(profiles []sesa.Profile) []sesa.SweepJob {
	js := make([]sesa.SweepJob, 0, len(profiles)*len(f.models))
	for _, p := range profiles {
		for _, m := range f.models {
			js = append(js, sesa.SweepJob{Profile: p, Model: m, InstPerCore: f.n, Seed: f.seed})
		}
	}
	return js
}

// setupReps is how many set-up repetitions run before each timed round.
const setupReps = 3

// setup generates every profile's traces into the process-wide cache the
// sweeps replay from, and counts each workload's instructions for the
// retire check. Later repetitions (setupReps now and before each timed
// round) generate into a private cache, so every repetition does the same
// work.
func (f *fig10) setup(r *run) {
	buildAll := func(cache *trace.Cache) {
		var sum time.Duration
		for _, p := range f.profiles {
			id := r.tr.begin(0, "trace.build", p.Name)
			t0 := time.Now()
			cache.Workload(p, f.cores, f.n, f.seed)
			sum += time.Since(t0)
			r.tr.end(id)
		}
		f.builds = append(f.builds, sum.Seconds())
	}
	r.setUp(func() { buildAll(trace.Shared()) })
	r.repeatSetup = func() {
		for i := 0; i < setupReps; i++ {
			runtime.GC() // every repetition starts from a collected heap
			r.setUp(func() { buildAll(trace.NewCache()) })
		}
	}
	r.repeatSetup()
	f.want = make([]counts, len(f.profiles))
	for i, p := range f.profiles {
		f.want[i] = traceCounts(trace.CachedWorkload(p, f.cores, f.n, f.seed).Programs)
	}
}

// recordE2E records the end-to-end metrics, and trace.build_s among the
// workload-specific figures.
func (f *fig10) recordE2E(r *run, rounds []round) {
	r.recordE2E(rounds)
	r.extra.add("trace.build_s", median(f.builds), "s")
}

// checkResults checks sweep results of profiles[first:] against the trace
// counts, and returns the per-profile cycle rows for the paper gap.
func (f *fig10) checkResults(r *run, first int, res []sesa.SweepResult) [][]uint64 {
	var names []string
	var want, got []counts
	var errs []error
	cycles := make([][]uint64, len(res)/len(f.models))
	for i, x := range res {
		names = append(names, x.Job.Name())
		want = append(want, f.want[first+i/len(f.models)])
		errs = append(errs, x.Err)
		var c counts
		if x.Stats != nil {
			c = retired(x.Stats)
			cycles[i/len(f.models)] = append(cycles[i/len(f.models)], x.Stats.Cycles)
		}
		got = append(got, c)
	}
	r.check(checkJobs(names, want, got, errs))
	return cycles
}

// checkStepModes reruns k sampled jobs under the naive clock and checks
// their statistics against the default skip clock's.
func (f *fig10) checkStepModes(r *run, rng *splitmix, res []sesa.SweepResult, k int) {
	for s := 0; s < k; s++ {
		x := res[rng.intn(len(res))]
		j := x.Job
		j.StepMode = sesa.StepNaive
		naive, _ := sesa.RunSweep([]sesa.SweepJob{j}, 1)
		r.check(checkSameStats(j.Name(), x.Stats, naive[0].Stats))
	}
}

// recordGap prints fig10_paper_gap, computed from per-profile cycle rows, to
// stderr: a fidelity figure of the fig10 workloads only, so not a metric.
func (f *fig10) recordGap(r *run, cycles [][]uint64) {
	for _, row := range cycles {
		if len(row) != len(f.models) {
			return // a failed job leaves the gap undefined; checkJobs reports it
		}
	}
	gap, err := paperGap(f.suite, f.models, cycles)
	r.check(err)
	if err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: fig10_paper_gap %.6f\n", r.workload, gap)
	}
}

// direct is the per-layer record of jobs run through the root API
// (sesa.New, LoadProgram, Run) with a span around each call.
type direct struct {
	mu      sync.Mutex
	runNs   map[sesa.Model]float64
	kinst   map[sesa.Model]float64
	work    work
	machine []*sesa.Stats // per job, for the cross-check with RunSweep
}

// runDirect runs jobs on `workers` goroutines through the root API with
// spans, parented under a bench.job root span per job.
func (f *fig10) runDirect(r *run, jobs []sesa.SweepJob, workers int) (*direct, error) {
	d := &direct{runNs: map[sesa.Model]float64{}, kinst: map[sesa.Model]float64{},
		machine: make([]*sesa.Stats, len(jobs))}
	idx := make(chan int)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for i := range idx {
				if first == nil {
					first = f.runOneDirect(r, d, i, jobs[i])
				}
			}
			errc <- first
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (f *fig10) runOneDirect(r *run, d *direct, i int, j sesa.SweepJob) error {
	g := j.Name()
	root := r.tr.begin(0, "bench.job", g)
	defer r.tr.end(root)
	s := r.tr.begin(root, "trace.cached_workload", g)
	w := trace.CachedWorkload(j.Profile, f.cores, j.InstPerCore, j.Seed)
	r.tr.end(s)
	s = r.tr.begin(root, "sim.new", g)
	sys, err := sesa.New(sesa.DefaultConfig(j.Model), sesa.WithWorkloadName(w.Name))
	r.tr.end(s)
	if err != nil {
		return err
	}
	s = r.tr.begin(root, "sim.load_program", g)
	for c, p := range w.Programs {
		if err := sys.LoadProgram(c, p); err != nil {
			return err
		}
	}
	r.tr.end(s)
	s = r.tr.begin(root, "sim.run", g)
	t0 := time.Now()
	err = sys.Run(j.DefaultMaxCycles())
	runNs := float64(time.Since(t0))
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: %w", g, err)
	}
	st := sys.Stats()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.runNs[j.Model] += runNs
	d.kinst[j.Model] += float64(st.Total().RetiredInsts) / 1e3
	d.work.add(st, sys.MemoryStats())
	d.machine[i] = st
	return nil
}

// record adds the direct pass's per-layer metrics: host time per simulated
// cycle and per retired instruction on each machine, and the work counts
// that explain them.
func (d *direct) record(r *run, models []sesa.Model) {
	var runNs float64
	for _, m := range models {
		runNs += d.runNs[m]
		r.layer.add("sim.run_us_per_kinst."+m.String(), d.runNs[m]/1e3/d.kinst[m], "us/kinst")
	}
	r.layer.add("sim.host_ns_per_cycle", runNs/d.work.cycles, "ns/cycle")
	d.work.record(r)
}

// work sums the deterministic work counts of finished machines.
type work struct {
	cycles float64
	tot    sesa.CoreStats // only the fields record reads are summed
	mem    sesa.MemStats
	flits  uint64
}

func (w *work) add(st *sesa.Stats, ms sesa.MemStats) {
	t := st.Total()
	w.cycles += float64(st.Cycles)
	w.tot.RetiredInsts += t.RetiredInsts
	w.tot.ReexecInsts += t.ReexecInsts
	w.tot.SQSearches += t.SQSearches
	w.tot.LQSnoops += t.LQSnoops
	w.tot.GateStallCycles += t.GateStallCycles
	w.mem.L1Misses += ms.L1Misses
	w.mem.InvalsSent += ms.InvalsSent
	w.flits += st.NoC.Flits()
}

// record adds the work counts as per-layer metrics.
func (w *work) record(r *run) {
	t, ms, flits := w.tot, w.mem, w.flits
	r.layer.add("sim.cycles_k", w.cycles/1e3, "kcycles")
	r.layer.add("core.retired_kinst", float64(t.RetiredInsts)/1e3, "kinst")
	r.layer.add("core.reexec_kinst", float64(t.ReexecInsts)/1e3, "kinst")
	r.layer.add("core.useful_frac",
		float64(t.RetiredInsts)/float64(t.RetiredInsts+t.ReexecInsts), "ratio")
	r.layer.add("core.sq_searches_k", float64(t.SQSearches)/1e3, "k")
	r.layer.add("core.lq_snoops_k", float64(t.LQSnoops)/1e3, "k")
	r.layer.add("core.gate_stall_kcycles", float64(t.GateStallCycles)/1e3, "kcycles")
	r.layer.add("mem.l1_misses_k", float64(ms.L1Misses)/1e3, "k")
	r.layer.add("mem.invals_sent_k", float64(ms.InvalsSent)/1e3, "k")
	r.layer.add("noc.flits_k", float64(flits)/1e3, "k")
}

// recordMachineBuild times the construction of Table III machines (one per
// model, repeatedly) and records the median build time and the bytes one
// build allocates.
func recordMachineBuild(r *run) error {
	const reps = 10
	models := sesa.AllModels()
	var ds []float64
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	before := mst.TotalAlloc
	for i := 0; i < reps; i++ {
		for _, m := range models {
			t0 := time.Now()
			if _, err := sesa.New(sesa.DefaultConfig(m)); err != nil {
				return err
			}
			ds = append(ds, ms(time.Since(t0)))
		}
	}
	runtime.ReadMemStats(&mst)
	r.layer.add("sim.new_ms_p50", median(ds), "ms")
	r.layer.add("sim.new_alloc_kb", float64(mst.TotalAlloc-before)/1e3/float64(len(ds)), "kB")
	return nil
}

// seqN is the trace length of the sequential sweep, in instructions.
const seqN = 20000

// runFig10Seq drives fig10-seq: the sequential suite on every machine
// through sesa.RunSweep on one worker, one sweep per round.
func runFig10Seq(r *run) error {
	f := newFig10(sesa.SequentialSuite, seqN, r.seed)
	f.setup(r)
	jobs := f.jobs(f.profiles)
	var last []sesa.SweepResult
	sweepRound := func() (time.Duration, error) {
		t0 := time.Now()
		res, sum := sesa.RunSweep(jobs, 1)
		wall := time.Since(t0)
		last = res
		r.attempted += len(jobs)
		r.failed += sum.Failed
		return wall, nil
	}
	rounds, err := r.timedRounds(sweepRound)
	if err != nil {
		return err
	}
	f.recordE2E(r, rounds)

	cycles := f.checkResults(r, 0, last)
	f.recordGap(r, cycles)
	f.checkStepModes(r, newSplitmix(r.seed), last, 3)

	if !r.traced {
		return nil
	}
	// RunSweep offers no hook around sesa.New, LoadProgram and Run, so the
	// span pass runs the same jobs once through the root API.
	untraced := last
	var d *direct
	err = r.tracedPhase(rounds, sweepRound, func() error {
		var err error
		d, err = f.runDirect(r, jobs, 1)
		return err
	})
	if err != nil {
		return err
	}
	f.checkResults(r, 0, last) // the profiled rounds' results
	for i := range jobs {
		r.check(checkSameStats(jobs[i].Name()+" (root API vs RunSweep)", untraced[i].Stats, d.machine[i]))
	}
	d.record(r, f.models)
	return recordMachineBuild(r)
}

// splitmix is the benchmark's seeded sampler.
type splitmix uint64

func newSplitmix(seed uint64) *splitmix { s := splitmix(seed); return &s }

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }
