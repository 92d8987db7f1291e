package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"

	"sesa"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to measurements. encoding/json sorts map keys,
// so the printed result line has a stable key order.
type metricSet map[string]metric

// nameRE is the metric-name grammar: a letter or digit first, then at most
// 63 letters, digits, '_', '.' and '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit grammar: at most 16 letters, digits, '_', '/', '%', '.'
// and '-'.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// add records a metric. A name outside the grammar, a repeated name or a
// non-finite value is a bug in the benchmark and panics.
func (m metricSet) add(name string, v float64, unit string) {
	if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
		panic(fmt.Sprintf("perfbench: bad metric name %q or unit %q", name, unit))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q recorded twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %q is not finite", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// metricDef is a metric's name and unit as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics every workload prints with --trace 0
// and --trace 1, in BENCHMARK.json's order; a test holds the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"cpu_ms_per_op", "ms"}, {"alloc_mb", "MB"},
}

var perLayer = func() []metricDef {
	ds := []metricDef{
		{"sim.cpu_s", "s"}, {"core.cpu_s", "s"}, {"mem.cpu_s", "s"}, {"sched.cpu_s", "s"},
		{"predictor.cpu_s", "s"}, {"runtime.cpu_s", "s"}, {"bench.trace_overhead_pct", "%"},
		{"sim.new_ms_p50", "ms"}, {"sim.new_alloc_kb", "kB"}, {"sim.host_ns_per_cycle", "ns/cycle"},
	}
	for _, m := range sesa.AllModels() {
		ds = append(ds, metricDef{"sim.run_us_per_kinst." + m.String(), "us/kinst"})
	}
	return append(ds,
		metricDef{"sim.cycles_k", "kcycles"}, metricDef{"core.retired_kinst", "kinst"},
		metricDef{"core.reexec_kinst", "kinst"}, metricDef{"core.useful_frac", "ratio"},
		metricDef{"core.sq_searches_k", "k"}, metricDef{"core.lq_snoops_k", "k"},
		metricDef{"core.gate_stall_kcycles", "kcycles"}, metricDef{"mem.l1_misses_k", "k"},
		metricDef{"mem.invals_sent_k", "k"}, metricDef{"noc.flits_k", "k"})
}()

// matches reports how m differs from the metrics of defs: a metric missing,
// in another unit, or not among them.
func (m metricSet) matches(defs []metricDef) error {
	var problems []string
	for _, d := range defs {
		switch got, ok := m[d.name]; {
		case !ok:
			problems = append(problems, "missing "+d.name)
		case got.Unit != d.unit:
			problems = append(problems, fmt.Sprintf("%s in %s, not %s", d.name, got.Unit, d.unit))
		}
	}
	for name := range m {
		known := false
		for _, d := range defs {
			known = known || d.name == name
		}
		if !known {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics differ from the benchmark's list: %s", strings.Join(problems, ", "))
	}
	return nil
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. An empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, the form the steadiness rule is stated in. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts a slice of durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
