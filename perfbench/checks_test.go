package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sesa"
)

func TestCheckJobsRejectsCorruptedResults(t *testing.T) {
	names := []string{"a/x86", "b/x86"}
	want := []counts{{100, 30, 20}, {200, 50, 40}}
	good := func() ([]counts, []error) {
		return append([]counts(nil), want...), []error{nil, nil}
	}
	got, errs := good()
	if err := checkJobs(names, want, got, errs); err != nil {
		t.Fatalf("correct results rejected: %v", err)
	}
	got, errs = good()
	if checkJobs(names[:1], want[:1], got[:1], errs) == nil {
		t.Error("a dropped job was accepted")
	}
	got, errs = good()
	errs[1] = errors.New("timeout")
	if checkJobs(names, want, got, errs) == nil {
		t.Error("a failed job was accepted")
	}
	for _, corrupt := range []func(*counts){
		func(c *counts) { c.insts-- },
		func(c *counts) { c.loads++ },
		func(c *counts) { c.stores = 0 },
	} {
		got, errs = good()
		corrupt(&got[1])
		if checkJobs(names, want, got, errs) == nil {
			t.Errorf("altered retire counts %+v accepted", got[1])
		}
	}
}

func TestTraceCountsCountRMWAsLoadAndStore(t *testing.T) {
	prog := sesa.Program{sesa.StoreImm(0x100, 1), sesa.Load(1, 0x100), sesa.RMW(2, 0x140, 3), sesa.Nop()}
	if got := traceCounts([]sesa.Program{prog, prog}); got != (counts{8, 4, 4}) {
		t.Errorf("traceCounts = %+v, want {8 4 4}", got)
	}
}

func TestCheckSameStatsRejectsAlteredCycles(t *testing.T) {
	mk := func() *sesa.Stats {
		return &sesa.Stats{Model: "x86", Workload: "w", Cycles: 1000,
			Cores: []sesa.CoreStats{{Cycles: 1000, RetiredInsts: 500}}}
	}
	if err := checkSameStats("j", mk(), mk()); err != nil {
		t.Fatalf("identical statistics rejected: %v", err)
	}
	b := mk()
	b.Cycles++
	if checkSameStats("j", mk(), b) == nil {
		t.Error("an altered cycle count was accepted")
	}
	b = mk()
	b.Cores[0].RetiredInsts--
	if checkSameStats("j", mk(), b) == nil {
		t.Error("an altered per-core count was accepted")
	}
	if checkSameStats("j", mk(), nil) == nil {
		t.Error("missing statistics were accepted")
	}
}

func TestCheckSameBytes(t *testing.T) {
	if err := checkSameBytes("doc", []byte(`{"a":1}`), []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if checkSameBytes("doc", []byte(`{"a":1}`), []byte(`{"a":2}`)) == nil {
		t.Error("different documents were accepted")
	}
}

func TestCheckRowsRejectsCorruptedTable(t *testing.T) {
	row := sesa.Characterization{Benchmark: "radix", Instructions: 80000}
	rows := []sesa.Characterization{row, row}
	if err := checkRows("radix", 2, 80000, rows); err != nil {
		t.Fatalf("correct table rejected: %v", err)
	}
	if checkRows("radix", 2, 80000, rows[:1]) == nil {
		t.Error("a dropped row was accepted")
	}
	bad := []sesa.Characterization{row, row}
	bad[1].Instructions = 79999
	if checkRows("radix", 2, 80000, bad) == nil {
		t.Error("an altered instruction count was accepted")
	}
	bad = []sesa.Characterization{row, row}
	bad[0].Benchmark = "fft"
	if checkRows("radix", 2, 80000, bad) == nil {
		t.Error("a row of another profile was accepted")
	}
}

func TestCheckFuzzRejectsFailures(t *testing.T) {
	good := func() []sesa.FuzzProgramReport {
		return []sesa.FuzzProgramReport{
			{Index: 0, Seed: 1, Rep: &sesa.FuzzReport{}},
			{Index: 1, Seed: 2, Rep: &sesa.FuzzReport{}},
		}
	}
	if err := checkFuzz(good(), 2); err != nil {
		t.Fatalf("clean reports rejected: %v", err)
	}
	if checkFuzz(good()[:1], 2) == nil {
		t.Error("a dropped program was accepted")
	}
	r := good()
	r[1].Err = errors.New("boom")
	if checkFuzz(r, 2) == nil {
		t.Error("an erroring program was accepted")
	}
	r = good()
	r[0].Rep.Mismatches = append(r[0].Rep.Mismatches, sesa.FuzzMismatch{Kind: "sim-forbidden", Outcome: "r1=1"})
	if checkFuzz(r, 2) == nil {
		t.Error("a mismatch was accepted")
	}
	r = good()
	r[1].Rep = nil
	if checkFuzz(r, 2) == nil {
		t.Error("a missing report was accepted")
	}
}

func set(os ...sesa.Outcome) sesa.OutcomeSet {
	s := sesa.OutcomeSet{}
	for _, o := range os {
		s[o] = true
	}
	return s
}

func TestCheckInclusionRejectsOutcomeOutsideModel(t *testing.T) {
	sc, m370, x86 := set("a"), set("a", "b"), set("a", "b", "c")
	if err := checkInclusion(sc, m370, x86); err != nil {
		t.Fatalf("SC ⊆ 370 ⊆ x86 rejected: %v", err)
	}
	if checkInclusion(set("a", "z"), m370, x86) == nil {
		t.Error("an SC outcome outside 370 was accepted")
	}
	if checkInclusion(sc, set("a", "b", "z"), x86) == nil {
		t.Error("a 370 outcome outside x86 was accepted")
	}
	if checkInclusion(set(), m370, x86) == nil {
		t.Error("an empty SC set was accepted")
	}
}

func TestPaperVerdicts(t *testing.T) {
	if err := checkPaperVerdicts(sesa.Enumerate); err != nil {
		t.Fatalf("the checker disagrees with the paper: %v", err)
	}
	corrupt := func(test string, m sesa.CheckerModel, edit func(sesa.OutcomeSet)) enumerator {
		lt, _ := sesa.GetLitmus(test)
		return func(p sesa.CheckerProgram, model sesa.CheckerModel) sesa.OutcomeSet {
			s := sesa.Enumerate(p, model)
			if model == m && reflect.DeepEqual(p, lt.Prog) {
				edit(s)
			}
			return s
		}
	}
	for name, enum := range map[string]enumerator{
		"mp allows rx=1 ry=0 under x86": corrupt("mp", sesa.CheckerX86TSO,
			func(s sesa.OutcomeSet) { s["rx=1 ry=0"] = true }),
		"iriw disagreement under 370": corrupt("iriw", sesa.Checker370TSO,
			func(s sesa.OutcomeSet) { s["r0x=1 r0y=0 r1y=1 r1x=0"] = true }),
		"n6 signature missing under x86": corrupt("n6", sesa.CheckerX86TSO,
			func(s sesa.OutcomeSet) { delete(s, "rx=1 ry=0 [x]=1 [y]=2") }),
		"n6 signature under 370": corrupt("n6", sesa.Checker370TSO,
			func(s sesa.OutcomeSet) { s["rx=1 ry=0 [x]=1 [y]=2"] = true }),
		"fig5 disagreement under 370": corrupt("fig5", sesa.Checker370TSO,
			func(s sesa.OutcomeSet) { s["c1x=1 c1y=0 c2y=1 c2x=0"] = true }),
		"fig5 extra x86 outcome": corrupt("fig5", sesa.CheckerX86TSO,
			func(s sesa.OutcomeSet) { s["c1x=0 c1y=0 c2y=0 c2x=0"] = true }),
	} {
		if checkPaperVerdicts(enum) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPaperGap(t *testing.T) {
	models := []sesa.Model{sesa.X86, sesa.NoSpec370, sesa.SLFSpec370, sesa.SLFSoS370, sesa.SLFSoSKey370}
	// Every machine as fast as x86: the gap is the mean of paper-1.
	cycles := [][]uint64{{100, 100, 100, 100, 100}, {50, 50, 50, 50, 50}}
	got, err := paperGap(sesa.SequentialSuite, models, cycles)
	want := (0.23 + 0.14 + 0.12 + 0.027) / 4
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Errorf("paperGap = %v, %v; want %v", got, err, want)
	}
	// Exactly the paper's parallel GeoMeans: no gap.
	exact := [][]uint64{{1000, 1270, 1070, 1050, 1025}}
	if got, err := paperGap(sesa.ParallelSuite, models, exact); err != nil || got > 1e-12 {
		t.Errorf("paperGap at the paper's values = %v, %v; want 0", got, err)
	}
	if _, err := paperGap(sesa.ParallelSuite, models[1:], [][]uint64{{1, 1, 1, 1}}); err == nil {
		t.Error("a table without x86 was accepted")
	}
}

func TestServeRoundCountsFailedSubmissions(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	f := newFig10(sesa.ParallelSuite, 100, 1)
	f.profiles = f.profiles[:2]
	r := &run{}
	runs := f.serveRound(r, &client{base: hs.URL, hc: hs.Client()}, newSplitmix(1))
	if len(runs) != 2 || runs[0].ok || runs[1].ok {
		t.Fatalf("failed sweeps reported done: %+v", runs)
	}
	// Two fresh sweeps and two resubmissions, each failed and reported.
	if r.failed != 4 || len(r.fails) != 4 {
		t.Errorf("failed %d, check failures %d, want 4 and 4: %q", r.failed, len(r.fails), r.fails)
	}
}
