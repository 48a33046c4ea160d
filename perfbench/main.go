// Command perfbench is the wall-clock benchmark of mprs: it runs one named
// workload for a fixed time, checks every job's output, and prints every
// metric by name with its unit. BENCHMARK.json at the repository root
// describes it; README.md in this directory explains the workloads and
// metrics and records measured rows. Run it from the repository root:
//
//	bash perfbench/run.sh --workload det2-gnp32k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics from untraced jobs; with
// --trace 1 it runs untraced and traced jobs side by side and reports the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// The benchmark measures each layer from outside, by timing its calls into
// the layer's public functions and observer seams (gen.Spec.Build, the
// rulingset drivers, Options.Tracer, Options.CheckpointSink,
// supervise.Run/InProc, supervise.Config.Lifecycle/Spawn and the rusage of
// worker processes); it adds no code inside the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/rulingset/mprs/internal/supervise"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The supervisor re-executes this binary as its worker, passing the job
	// in the environment (supervise.SelfExec).
	if blob, ok := os.LookupEnv(supervise.EnvSpec); ok {
		if err := workerMain(blob); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workerMain(blob string) error {
	var env supervise.WorkerEnv
	if err := json.Unmarshal([]byte(blob), &env); err != nil {
		return fmt.Errorf("decode %s: %w", supervise.EnvSpec, err)
	}
	return supervise.WorkerMain(env, os.Stdin, os.Stdout)
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: generates the input graph and seeds randomized drivers")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics from traced and untraced jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.Name == *name })
	if i < 0 {
		names := make([]string, len(workloads))
		for j, w := range workloads {
			names[j] = w.Name
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traced)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	if err := checkDefs(defs); err != nil {
		return err
	}

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	host := stampHost(root)
	stamp, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", stamp)
	fmt.Printf("# workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *traced)

	e := &runEnv{w: workloads[i], seed: *seed, window: time.Duration(*seconds) * time.Second, scratch: scratch}
	rep := newReport()
	if *traced == 0 {
		err = e.endToEnd(rep)
	} else {
		err = e.perLayer(rep, filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)), host)
	}
	if err != nil {
		return err
	}
	rep.print(defs)
	res := result{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// report collects metric values; a metric set from samples is their median.
type report struct {
	values  map[string]float64
	samples map[string][]float64
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string][]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) median(name string, xs []float64) {
	r.values[name] = median(xs)
	r.samples[name] = xs
}

// print writes one comment line per metric: the value and, for a median,
// its sample count, quartiles and range.
func (r *report) print(defs []metricDef) {
	for _, d := range defs {
		line := fmt.Sprintf("# %-30s %14.6g %-5s", d.Name, r.values[d.Name], d.Unit)
		xs := r.samples[d.Name]
		if len(xs) > 0 {
			line += fmt.Sprintf(" median of n=%d, min %.6g", len(xs), slices.Min(xs))
		}
		// Below four samples the quartiles extrapolate past the data.
		if q1, _, q3, err := quartiles(xs); err == nil && len(xs) >= 4 {
			line += fmt.Sprintf(", q1 %.6g, q3 %.6g", q1, q3)
		}
		if len(xs) > 0 {
			line += fmt.Sprintf(", max %.6g", slices.Max(xs))
		}
		fmt.Println(line)
	}
}

// endToEnd measures untraced jobs for the window and reports the
// end-to-end metrics.
func (e *runEnv) endToEnd(rep *report) error {
	setupS, _, err := e.setup()
	if err != nil {
		return err
	}
	rep.median("setup_s", setupS)
	var jobS, cpuS, allocMB, rssMB []float64
	start := now()
	for n := 0; n < minJobs || now().Sub(start) < e.window; n++ {
		var s sample
		var out outcome
		if e.w.Multiproc {
			var fs fleetSample
			fs, out, err = e.fleetJob(false)
			s = fs.sample
		} else {
			s, out, err = e.inprocJob(nil, nil)
		}
		if !e.verify("measured", out, err) {
			continue
		}
		jobS = append(jobS, s.Wall.Seconds())
		cpuS = append(cpuS, (s.SelfCPU + s.ChildCPU).Seconds())
		allocMB = append(allocMB, mib(s.AllocBytes))
		rssMB = append(rssMB, max(s.PeakRSSMB, childrenPeakRSSMB()))
	}
	rep.median("job_s", jobS)
	rep.median("cpu_s", cpuS)
	rep.median("alloc_mb", allocMB)
	rep.median("peak_rss_mb", rssMB)
	if e.w.Multiproc {
		// The fleet's output must equal its in-process twin's. The twin runs
		// last so that its resident set stays out of the workers' peak.
		_, out, err := e.twinJob()
		e.verify("supervise.InProc twin", out, err)
	}
	var ref outcome
	if e.ref != nil {
		ref = *e.ref
	}
	rep.set("words", float64(ref.Words))
	return nil
}

// minJobs is the fewest measured jobs (or traced/untraced pairs) per run,
// however long they take.
const minJobs = 3

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
