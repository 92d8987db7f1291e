package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2.5, 7}, [3]float64{1.375, 4.75, 8.125}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "bench.job", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "sim.new", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 20 * ms, End: 40 * ms},      // overlaps span 2
		{ID: 4, Parent: 1, Name: "trace.build", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 3, Name: "core.tick", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Parent: 1, Name: "sim.open", Start: 50 * ms, End: -1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": 100*ms - 30*ms - 10*ms, // children cover 10-40 and 90-100
		"sim":   20*ms + (20*ms - 10*ms),
		"trace": 30 * ms,
		"core":  10 * ms,
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "sim.run", "g")
	tr.end(id)
	if id != 0 || tr.find("sim.run", "g") != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

func TestFrameAndStackLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"sesa/internal/core.(*Core).issue":           "core",
		"sesa/internal/mem.NewHierarchy":             "mem",
		"sesa/internal/serve.(*Server).handleSubmit": "serve",
		"sesa.(*System).Run":                         "sesa",
		"runtime.mallocgc":                           "",
		"main.runFig10Seq":                           "",
		"encoding/json.Marshal":                      "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// The innermost program frame wins, past library frames.
		{[]string{"runtime.memmove", "sesa/internal/mem.(*Hierarchy).Load", "sesa/internal/core.(*Core).issue"}, "mem"},
		{[]string{"encoding/json.Marshal", "sesa/internal/serve.writeJSON", "net/http.(*conn).serve"}, "serve"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"net/http.(*Client).Do", "main.(*client).do"}, "bench"},
		{nil, "runtime"},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pbEnc is a minimal protobuf encoder for building test profiles.
type pbEnc struct{ b []byte }

func (e *pbEnc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}
func (e *pbEnc) uint(num int, v uint64) { e.varint(uint64(num) << 3); e.varint(v) }
func (e *pbEnc) bytes(num int, b []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}
func (e *pbEnc) packed(num int, vs ...uint64) {
	var p pbEnc
	for _, v := range vs {
		p.varint(v)
	}
	e.bytes(num, p.b)
}

// TestProfileBucketing decodes a hand-built profile: an inlined frame, a
// sample with no program frame, and packed and unpacked repeated fields.
func TestProfileBucketing(t *testing.T) {
	strs := []string{"", "runtime.mallocgc", "sesa/internal/core.(*Core).issue",
		"sesa/internal/mem.(*Hierarchy).Load", "sesa/internal/sim.(*Machine).Step"}
	var p pbEnc
	for i := 1; i < len(strs); i++ { // Function{id=i, name=i}
		var f pbEnc
		f.uint(1, uint64(i))
		f.uint(2, uint64(i))
		p.bytes(5, f.b)
	}
	loc := func(id uint64, fns ...uint64) { // Location{id, line{function_id}...}
		var l pbEnc
		l.uint(1, id)
		for _, fn := range fns {
			var ln pbEnc
			ln.uint(1, fn)
			l.bytes(4, ln.b)
		}
		p.bytes(4, l.b)
	}
	loc(1, 1)    // runtime.mallocgc
	loc(2, 3, 2) // mem Load inlined into core issue
	loc(3, 4)    // sim Step
	sample := func(ns uint64, packed bool, locs ...uint64) {
		var s pbEnc
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		s.packed(2, 1, ns)
		p.bytes(2, s.b)
	}
	sample(30e6, true, 1, 2, 3) // mallocgc under mem (inlined) -> mem
	sample(20e6, false, 3)      // sim
	sample(10e6, true, 1)       // no program frame -> runtime
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := prof.buckets()
	want := map[string]float64{"mem": 0.03, "sim": 0.02, "runtime": 0.01}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for l, w := range want {
		if !near(got[l], w) {
			t.Errorf("bucket %s = %v, want %v", l, got[l], w)
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseRealProfile decodes a profile written by runtime/pprof.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for i, st := range prof.stacks {
		total += prof.nanos[i]
		for _, fn := range st {
			found = found || strings.HasSuffix(fn, "spinForProfile")
		}
	}
	if total <= 0 || !found {
		t.Errorf("decoded %d samples, %d ns, spin frame found: %v", len(prof.stacks), total, found)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, n := range []string{"setup_s", "sim.run_us_per_kinst.370-SLFSoS-key", "core.cpu_s", "9lives"} {
		if !nameRE.MatchString(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range []string{"", "_x", ".x", "a b", "a/b", "x" + strings.Repeat("y", 64), "é"} {
		if nameRE.MatchString(n) {
			t.Errorf("%q accepted", n)
		}
	}
	m := metricSet{}
	m.add("ok.name", 1, "kinst/s")
	for _, bad := range []func(){
		func() { m.add("ok.name", 2, "s") },
		func() { m.add("bad name", 1, "s") },
		func() { m.add("x", 1, "not a unit") },
		func() { m.add("y", math.NaN(), "s") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("metricSet.add accepted a bad metric")
				}
			}()
			bad()
		}()
	}
}

// TestBenchmarkDefinition checks BENCHMARK.json against the grammar: unique
// names, units, directions, and bounds with setup_s's the largest.
func TestBenchmarkDefinition(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") ||
			m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bad end-to-end metric %+v", m)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, largest bound %v", setupBound, maxBound)
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("bad per-layer metric %+v", m)
		}
	}
	// Every workload prints exactly the listed metrics, so the lists the
	// benchmark checks its output against must be BENCHMARK.json's.
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, the benchmark %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, the benchmark %v", layer, perLayer)
	}
}

func TestMetricSetMatches(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	ok := metricSet{"a": {1, "s"}, "b": {2, "ms"}}
	if err := ok.matches(defs); err != nil {
		t.Errorf("matching set rejected: %v", err)
	}
	for _, bad := range []metricSet{
		{"a": {1, "s"}},
		{"a": {1, "s"}, "b": {2, "s"}},
		{"a": {1, "s"}, "b": {2, "ms"}, "c": {3, "s"}},
	} {
		if bad.matches(defs) == nil {
			t.Errorf("%v accepted against %v", bad, defs)
		}
	}
}

func TestParseResultTakesLastLine(t *testing.T) {
	out := []byte("progress\n{\"correct\":false}\n{\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n\n")
	r, err := parseResult(out)
	if err != nil || !r.Correct || r.Attempted != 3 || r.Failed != 1 || r.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("parseResult = %+v, %v", r, err)
	}
	if _, err := parseResult([]byte(`{"correct":true,"attempted":0}`)); err == nil {
		t.Error("a result with nothing attempted was accepted")
	}
}
