package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"sesa"
	"sesa/internal/isa"
)

// The output checks. Each compares a result with a value the benchmark
// computes apart from the program, or with a property the method must have,
// and returns nil or an error naming the first violation.

// counts are the instructions, loads and stores a machine must retire to
// finish a set of traces.
type counts struct{ insts, loads, stores uint64 }

// traceCounts counts a workload's instructions from its traces. An RMW
// retires as both a load and a store.
func traceCounts(progs []isa.Program) counts {
	var c counts
	for _, p := range progs {
		for _, in := range p {
			c.insts++
			switch in.Op {
			case isa.OpLoad:
				c.loads++
			case isa.OpStore:
				c.stores++
			case isa.OpRMW:
				c.loads++
				c.stores++
			}
		}
	}
	return c
}

// retired reads the retired counts of a finished machine.
func retired(st *sesa.Stats) counts {
	t := st.Total()
	return counts{insts: t.RetiredInsts, loads: t.RetiredLoads, stores: t.RetiredStores}
}

// checkJobs checks that every job ran without error and retired exactly the
// instructions, loads and stores of its traces: got[i] and errs[i] belong
// to the job whose traces counted want[i].
func checkJobs(names []string, want, got []counts, errs []error) error {
	if len(got) != len(want) || len(errs) != len(want) || len(names) != len(want) {
		return fmt.Errorf("jobs: %d results for %d jobs", len(got), len(want))
	}
	for i := range want {
		if errs[i] != nil {
			return fmt.Errorf("jobs: %s failed: %v", names[i], errs[i])
		}
		if got[i] != want[i] {
			return fmt.Errorf("jobs: %s retired %+v, traces hold %+v", names[i], got[i], want[i])
		}
	}
	return nil
}

// checkSameStats checks that two step modes produced identical statistics.
func checkSameStats(name string, skip, naive *sesa.Stats) error {
	if skip == nil || naive == nil {
		return fmt.Errorf("step modes: %s has no statistics", name)
	}
	if !reflect.DeepEqual(skip, naive) {
		return fmt.Errorf("step modes: %s differs between skip (%d cycles) and naive (%d cycles)",
			name, skip.Cycles, naive.Cycles)
	}
	return nil
}

// checkSameBytes checks that two documents are byte-identical.
func checkSameBytes(what string, a, b []byte) error {
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: documents differ (%d vs %d bytes)", what, len(a), len(b))
	}
	return nil
}

// checkFuzz checks that every one of n programs was cross-validated without
// error or mismatch.
func checkFuzz(reps []sesa.FuzzProgramReport, n int) error {
	if len(reps) != n {
		return fmt.Errorf("fuzz: %d reports for %d programs", len(reps), n)
	}
	for _, r := range reps {
		switch {
		case r.Err != nil:
			return fmt.Errorf("fuzz: program seed %d: %v", r.Seed, r.Err)
		case r.Rep == nil:
			return fmt.Errorf("fuzz: program seed %d has no report", r.Seed)
		case !r.Rep.Ok():
			return fmt.Errorf("fuzz: program seed %d: %v", r.Seed, r.Rep.Mismatches[0])
		}
	}
	return nil
}

// checkInclusion checks Table I's ordering of the models' outcome sets:
// SC ⊆ 370 ⊆ x86, and none empty.
func checkInclusion(sc, m370, x86 sesa.OutcomeSet) error {
	if len(sc) == 0 {
		return fmt.Errorf("inclusion: SC allows no outcome")
	}
	for o := range sc {
		if !m370[o] {
			return fmt.Errorf("inclusion: SC allows %q, 370 forbids it", o)
		}
	}
	for o := range m370 {
		if !x86[o] {
			return fmt.Errorf("inclusion: 370 allows %q, x86 forbids it", o)
		}
	}
	return nil
}

// enumerator returns the allowed outcomes of a program under a model.
type enumerator func(sesa.CheckerProgram, sesa.CheckerModel) sesa.OutcomeSet

// checkPaperVerdicts checks the paper's litmus verdicts (Figs. 1-3 and 5,
// Table II), with the outcomes written out here from the paper: mp and iriw
// forbidden under every model, n6's store-atomicity signature allowed only
// under x86, and fig5 admitting exactly three outcomes under 370 plus the
// disagreement case under x86.
func checkPaperVerdicts(enum enumerator) error {
	models := []sesa.CheckerModel{sesa.CheckerSC, sesa.Checker370TSO, sesa.CheckerX86TSO}
	prog := func(name string) (sesa.CheckerProgram, error) {
		t, err := sesa.GetLitmus(name)
		return t.Prog, err
	}
	verdicts := []struct {
		test    string
		outcome sesa.Outcome
		allowed [3]bool // SC, 370, x86
	}{
		{"mp", "rx=1 ry=0", [3]bool{false, false, false}},
		{"iriw", "r0x=1 r0y=0 r1y=1 r1x=0", [3]bool{false, false, false}},
		{"n6", "rx=1 ry=0 [x]=1 [y]=2", [3]bool{false, false, true}},
	}
	for _, v := range verdicts {
		p, err := prog(v.test)
		if err != nil {
			return err
		}
		for i, m := range models {
			if got := enum(p, m)[v.outcome]; got != v.allowed[i] {
				return fmt.Errorf("litmus: %s outcome %q under %s: allowed=%v, paper says %v",
					v.test, v.outcome, m, got, v.allowed[i])
			}
		}
	}
	p, err := prog("fig5")
	if err != nil {
		return err
	}
	const disagree = sesa.Outcome("c1x=1 c1y=0 c2y=1 c2x=0")
	s370, x86 := enum(p, sesa.Checker370TSO), enum(p, sesa.CheckerX86TSO)
	if len(s370) != 3 || s370[disagree] {
		return fmt.Errorf("litmus: fig5 under 370 allows %d outcomes (disagreement %v), paper says 3 without it",
			len(s370), s370[disagree])
	}
	if len(x86) != 4 || !x86[disagree] {
		return fmt.Errorf("litmus: fig5 under x86 allows %d outcomes (disagreement %v), paper says 4 with it",
			len(x86), x86[disagree])
	}
	for o := range s370 {
		if !x86[o] {
			return fmt.Errorf("litmus: fig5 outcome %q allowed under 370 but not x86", o)
		}
	}
	return nil
}

// paperGeoMeans are the paper's Fig. 10 GeoMean execution times normalized
// to x86, for 370-NoSpec, 370-SLFSpec, 370-SLFSoS and 370-SLFSoS-key.
var paperGeoMeans = map[sesa.Suite][4]float64{
	sesa.ParallelSuite:   {1.27, 1.07, 1.05, 1.025},
	sesa.SequentialSuite: {1.23, 1.14, 1.12, 1.027},
}

var paperMachines = [4]sesa.Model{sesa.NoSpec370, sesa.SLFSpec370, sesa.SLFSoS370, sesa.SLFSoSKey370}

// paperGap is the mean absolute difference between the measured GeoMean
// normalized execution time of the four paper 370 machines and the paper's.
// cycles[p][m] is profile p's cycle count on models[m]; models must include
// x86.
func paperGap(suite sesa.Suite, models []sesa.Model, cycles [][]uint64) (float64, error) {
	col := map[sesa.Model]int{}
	for i, m := range models {
		col[m] = i
	}
	base, ok := col[sesa.X86]
	if !ok {
		return 0, fmt.Errorf("paper gap: no x86 column")
	}
	var gap float64
	for k, m := range paperMachines {
		c, ok := col[m]
		if !ok {
			return 0, fmt.Errorf("paper gap: no %s column", m)
		}
		norm := make([]float64, len(cycles))
		for p, row := range cycles {
			if row[base] == 0 {
				return 0, fmt.Errorf("paper gap: profile %d ran 0 x86 cycles", p)
			}
			norm[p] = float64(row[c]) / float64(row[base])
		}
		gap += math.Abs(sesa.GeoMean(norm) - paperGeoMeans[suite][k])
	}
	return gap / float64(len(paperMachines)), nil
}

// checkRows checks a served sweep's table: one row per model, each naming
// the profile and retiring its traces' instructions.
func checkRows(profile string, models int, insts uint64, rows []sesa.Characterization) error {
	if len(rows) != models {
		return fmt.Errorf("serve: %s sweep has %d rows for %d models", profile, len(rows), models)
	}
	for i, row := range rows {
		if row.Benchmark != profile || row.Instructions != insts {
			return fmt.Errorf("serve: %s row %d is %s retiring %d instructions, traces hold %d",
				profile, i, row.Benchmark, row.Instructions, insts)
		}
	}
	return nil
}
