package main

import (
	"fmt"
	"runtime"
	"time"

	"sesa"
	"sesa/internal/axiomatic"
	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/litmus"
	"sesa/internal/sim"
)

// The fuzz-xval program set: generator seeds fuzzBase .. fuzzBase+fuzzCount-1,
// the first programs of the CI fuzz run. The run's seed drives the witness
// search's timing exploration (FuzzOptions.SimSeed). The program set is
// fixed because per-program cost is heavy-tailed; README.md gives the
// measurements.
const (
	fuzzBase  = 1
	fuzzCount = 30
)

// fuzzSetupReps is how many set-up repetitions run before each round.
const fuzzSetupReps = 20

// runFuzz drives fuzz-xval: one sesa.FuzzMany call on one worker over the
// program set per round.
func runFuzz(r *run) error {
	budget, opt := sesa.DefaultFuzzBudget(), sesa.DefaultFuzzOptions()
	opt.SimSeed = r.seed

	// Set-up: generate the programs and render them to their text form.
	// One repetition takes well under a millisecond, so fuzzSetupReps of them
	// run back to back before each round, from a collected heap.
	progs := make([]sesa.CheckerProgram, fuzzCount)
	var renderErr error
	generate := func() {
		for i := range progs {
			progs[i] = sesa.GenerateLitmus(fuzzBase+uint64(i), budget)
			if _, err := sesa.RenderLitmusText(progs[i]); err != nil {
				renderErr = err
			}
		}
	}
	r.repeatSetup = func() {
		runtime.GC()
		for i := 0; i < fuzzSetupReps; i++ {
			r.setUp(generate)
		}
	}
	r.repeatSetup()
	if renderErr != nil {
		return renderErr
	}

	var last []sesa.FuzzProgramReport
	fuzzRound := func() (time.Duration, error) {
		t0 := time.Now()
		last = sesa.FuzzMany(fuzzBase, fuzzCount, budget, opt, 1)
		wall := time.Since(t0)
		r.attempted += fuzzCount
		for _, rep := range last {
			if rep.Err != nil || rep.Rep == nil || !rep.Rep.Ok() {
				r.failed++
			}
		}
		return wall, nil
	}
	rounds, err := r.timedRounds(fuzzRound)
	if err != nil {
		return err
	}
	r.recordE2E(rounds)

	r.check(checkFuzz(last, fuzzCount))
	for i, p := range progs {
		err := checkInclusion(sesa.Enumerate(p, sesa.CheckerSC), sesa.Enumerate(p, sesa.Checker370TSO),
			sesa.Enumerate(p, sesa.CheckerX86TSO))
		if err != nil {
			r.check(fmt.Errorf("program seed %d: %w", fuzzBase+i, err))
		}
	}
	r.check(checkPaperVerdicts(sesa.Enumerate))

	if !r.traced {
		return nil
	}
	untraced := append([]sesa.FuzzProgramReport(nil), last...)
	var witnessed, allowed int
	for _, rep := range untraced {
		if rep.Rep != nil {
			witnessed += rep.Rep.Witnessed
			allowed += rep.Rep.OpCount[sesa.CheckerX86TSO]
		}
	}
	r.extra.add("fuzz.witness_coverage", float64(witnessed)/float64(allowed), "ratio")
	// FuzzMany offers no hook around its enumerations and witness runs, so
	// the span pass repeats its three legs once through the layers' entry
	// points.
	d := &direct{runNs: map[sesa.Model]float64{}, kinst: map[sesa.Model]float64{}}
	err = r.tracedPhase(rounds, fuzzRound, func() error {
		for i := range progs {
			if err := crossValidate(r, d, fuzzBase+uint64(i), budget, opt, untraced[i].Rep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.check(checkFuzz(last, fuzzCount)) // the profiled rounds' reports
	r.extra.add("checker.enumerate_ms_p50", median(durationsMs(r.tr.durations("checker.enumerate"))), "ms")
	r.extra.add("axiomatic.enumerate_ms_p50", median(durationsMs(r.tr.durations("axiomatic.enumerate"))), "ms")
	r.extra.add("litmus.witness_cell_ms_p50", median(durationsMs(r.tr.durations("litmus.witness_cell"))), "ms")
	d.record(r, opt.Models)
	return recordMachineBuild(r)
}

// checkerPairs are the operational and axiomatic formulations of the three
// models, in checker.Model order.
var checkerPairs = []struct {
	op checker.Model
	ax axiomatic.Model
}{
	{checker.SC, axiomatic.SC},
	{checker.TSO370, axiomatic.TSO370},
	{checker.X86TSO, axiomatic.X86TSO},
}

// crossValidate repeats sesa.FuzzCrossValidate's three legs for one program
// through the layers' own entry points, with a span around each call: the
// operational and axiomatic enumerations of every model, and the witness
// search's litmus runs (every machine × plain and store-buffer-pressure
// variants × Table III and small configurations), adding every witness
// machine's work counts to d, and each witness cell's wall time and retired
// instructions to its machine's totals (a cell's time includes building its
// machines, which dominates on programs this small). It serves the span
// latencies and work counts only; the CPU profile comes from FuzzMany
// itself. Its verdicts must equal the untraced report's.
func crossValidate(r *run, d *direct, seed uint64, b sesa.FuzzBudget, opt sesa.FuzzOptions, want *sesa.FuzzReport) error {
	g := fmt.Sprintf("program-%d", seed)
	root := r.tr.begin(0, "bench.program", g)
	defer r.tr.end(root)
	s := r.tr.begin(root, "fuzz.generate", g)
	p := sesa.GenerateLitmus(seed, b)
	r.tr.end(s)

	var op [3]checker.OutcomeSet
	for _, pr := range checkerPairs {
		s := r.tr.begin(root, "checker.enumerate", g)
		op[pr.op] = checker.Enumerate(p, pr.op)
		r.tr.end(s)
	}
	for _, pr := range checkerPairs {
		s := r.tr.begin(root, "axiomatic.enumerate", g)
		ax, err := axiomatic.Enumerate(p, pr.ax)
		r.tr.end(s)
		if err != nil {
			return err
		}
		if !sameSet(ax, op[pr.op]) {
			r.check(fmt.Errorf("fuzz: program seed %d: %s outcome sets differ between checker and axiomatic",
				seed, pr.op))
		}
	}

	s = r.tr.begin(root, "checker.compare", g)
	checker.Compare(p, checker.X86TSO, checker.TSO370) // the report's Interesting flag
	r.tr.end(s)

	witnessed := checker.OutcomeSet{}
	base := litmus.Test{Name: "fuzz", Prog: p}
	variants := []litmus.Test{base}
	if opt.Pressure > 0 {
		variants = append(variants, litmus.WithSBPressure(base, opt.Pressure))
	}
	for mi, m := range opt.Models {
		configs := []config.Config{config.Skylake(len(p.Threads), m)}
		if opt.SmallConfig {
			configs = append(configs, config.Small(len(p.Threads), m))
		}
		allowed := op[litmus.CheckerModelFor(m)]
		for vi, v := range variants {
			for ci, cfg := range configs {
				cellSeed := opt.SimSeed + uint64(mi)*1000003 + uint64(vi)*101 + uint64(ci)*17
				var prev *sim.Machine
				var retired uint64
				done := func() {
					if prev != nil {
						d.work.add(prev.Stats, prev.Hierarchy().Stats)
						retired += prev.Stats.Total().RetiredInsts
					}
				}
				s := r.tr.begin(root, "litmus.witness_cell", g)
				t0 := time.Now()
				res, err := litmus.RunConfigTraced(v, cfg, opt.SimIters, cellSeed,
					func(_ int, mach *sim.Machine) {
						mach.SetStepMode(opt.StepMode)
						done()
						prev = mach
					})
				cellNs := float64(time.Since(t0))
				r.tr.end(s)
				if err != nil {
					return err
				}
				done()
				d.runNs[m] += cellNs
				d.kinst[m] += float64(retired) / 1e3
				for o := range res.Outcomes {
					witnessed[o] = true
					if !allowed[o] {
						r.check(fmt.Errorf("fuzz: program seed %d: %s witnessed %q, which its model forbids",
							seed, m, o))
					}
				}
			}
		}
	}
	if want == nil {
		return nil
	}
	for _, pr := range checkerPairs {
		if len(op[pr.op]) != want.OpCount[pr.op] {
			r.check(fmt.Errorf("fuzz: program seed %d: traced %s count %d, untraced %d",
				seed, pr.op, len(op[pr.op]), want.OpCount[pr.op]))
		}
	}
	if len(witnessed) != want.Witnessed {
		r.check(fmt.Errorf("fuzz: program seed %d: traced run witnessed %d outcomes, untraced %d",
			seed, len(witnessed), want.Witnessed))
	}
	return nil
}

// sameSet reports whether two outcome sets hold the same outcomes.
func sameSet(a, b checker.OutcomeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}
