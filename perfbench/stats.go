package main

import (
	"fmt"
	"regexp"
	"slices"
)

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's contract: BENCHMARK.json at the repository root lists the
// same names and units (checked by TestMetricListsMatchBenchmarkJSON).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of mprs sees, printed with --trace 0.
// Every one is nonzero on every workload. The zero-valued model columns
// (violations, fail_ratio) and rounds, whose count moves by whole Luby
// iterations from seed to seed, are per-layer metrics instead.
var endToEnd = []metricDef{
	{"job_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"words", "count"},
}

// perLayer are the single-layer metrics, printed with --trace 1. A layer a
// workload does not exercise reports 0 (see README.md).
var perLayer = []metricDef{
	{"gen.build_s", "s"},
	{"rulingset.span.setup_s", "s"},
	{"rulingset.span.sparsify_s", "s"},
	{"rulingset.span.seed-search_s", "s"},
	{"rulingset.span.gather_s", "s"},
	{"rulingset.span.finish_s", "s"},
	{"rulingset.pre_s", "s"},
	{"rulingset.tail_s", "s"},
	{"rulingset.check_s", "s"},
	{"derand.seed_steps", "count"},
	{"derand.s_per_seed_step", "s"},
	{"mpc.supersteps", "count"},
	{"mpc.superstep_p50_s", "s"},
	{"mpc.superstep_max_s", "s"},
	{"mpc.ns_per_word", "ns"},
	{"clique.messages", "count"},
	{"clique.ns_per_message", "ns"},
	{"clique.bytes_per_message", "B"},
	{"clique.objects_per_message", "count"},
	{"runtime.alloc_objects", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"supervise.inproc_twin_s", "s"},
	{"supervise.overhead_s", "s"},
	{"transport.ns_per_word", "ns"},
	{"supervise.spawn_s", "s"},
	{"supervise.result_skew_s", "s"},
	{"supervise.tail_s", "s"},
	{"supervise.restarts", "count"},
	{"supervise.cpu_s", "s"},
	{"supervise.worker_cpu_s", "s"},
	{"supervise.worker_sys_s", "s"},
	{"supervise.worker_maxrss_mb", "MiB"},
	{"durable.persist_calls", "count"},
	{"durable.persist_bytes", "B"},
	{"durable.persist_s", "s"},
	{"durable.checkpoint_bytes", "B"},
	{"trace.overhead_ratio", "ratio"},
	{"rounds", "count"},
	{"violations", "count"},
	{"fail_ratio", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs rejects a metric list with a malformed or repeated name or unit,
// so a typo fails the run instead of producing a result the consumer refuses.
func checkDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs into four groups by the
// method of Python's statistics.quantiles(xs, n=4) (method "exclusive"),
// the rule the benchmark's steadiness check is stated in, including its
// clamp (and hence extrapolation) for very small samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles of %d samples: need at least 2", n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}
