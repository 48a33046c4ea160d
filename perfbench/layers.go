package main

import (
	"fmt"
	"slices"
	"time"
)

// spanNames are the canonical phase labels of both simulators ("setup"
// covers the rounds before a driver's first label).
var spanNames = []string{"setup", "sparsify", "seed-search", "gather", "finish"}

// minPairs is the fewest untraced/traced job pairs per per-layer run.
const minPairs = 2

// tracedJob is one traced in-process job and its phase breakdown.
type tracedJob struct {
	s sample
	b breakdown
}

// perLayer alternates untraced and traced in-process jobs with identical
// options for the window (on the multiproc workload: a supervised job, its
// supervise.InProc twin, and untraced and traced twins with a metered
// checkpoint store), then reports the per-layer metrics and writes the
// spans of the last traced job to spansPath.
func (e *runEnv) perLayer(rep *report, spansPath string, host hostStamp) error {
	_, buildS, err := e.setup()
	if err != nil {
		return err
	}
	rep.median("gen.build_s", buildS)

	var (
		plain  []sample
		traced []tracedJob
		sinks  []*timedSink
		twins  []sample
		fleets []fleetSample
	)
	rec := newRecorder(1024)
	start := now()
	for n := 0; n < minPairs || now().Sub(start) < e.window; n++ {
		if e.w.Multiproc {
			s, out, err := e.twinJob()
			if e.verify("supervise.InProc twin", out, err) {
				twins = append(twins, s)
			}
			fs, out, err := e.fleetJob(true)
			if e.verify("multiproc", out, err) {
				fleets = append(fleets, fs)
			}
			s, out, sink, err := e.durableJob(nil)
			if e.verify("untraced", out, err) {
				plain = append(plain, s)
				sinks = append(sinks, sink)
			}
			s, out, _, err = e.durableJob(rec)
			if e.verify("traced", out, err) {
				traced = append(traced, tracedJob{s, attribute(rec.marks, s.Wall)})
			}
			continue
		}
		s, out, err := e.inprocJob(nil, nil)
		if e.verify("untraced", out, err) {
			plain = append(plain, s)
		}
		s, out, err = e.inprocJob(rec, nil)
		if e.verify("traced", out, err) {
			traced = append(traced, tracedJob{s, attribute(rec.marks, s.Wall)})
		}
	}
	if e.ref == nil || len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("every %s job failed", e.w.Name)
	}
	ref := *e.ref
	header := map[string]any{"host": host, "workload": e.w.Name, "seed": e.seed, "job_ns": traced[len(traced)-1].s.Wall}
	if err := writeSpans(spansPath, header, rec.marks); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	// rulingset: phase self times of the traced jobs.
	for _, name := range spanNames {
		rep.median("rulingset.span."+name+"_s", collect(traced, func(t tracedJob) float64 { return t.b.Self[name].Seconds() }))
	}
	rep.median("rulingset.pre_s", collect(traced, func(t tracedJob) float64 { return t.b.Pre.Seconds() }))
	rep.median("rulingset.tail_s", collect(traced, func(t tracedJob) float64 { return t.b.Tail.Seconds() }))
	rep.median("rulingset.check_s", e.checks)
	accounted := rep.values["rulingset.pre_s"] + rep.values["rulingset.tail_s"]
	for _, name := range spanNames {
		accounted += rep.values["rulingset.span."+name+"_s"]
	}
	fmt.Printf("# traced job_s median %.6g s; pre_s + span self times + tail_s = %.6g s\n",
		median(collect(traced, func(t tracedJob) float64 { return t.s.Wall.Seconds() })), accounted)

	// derand: seed-search time per conditional-expectation step.
	searchS := median(collect(traced, func(t tracedJob) float64 { return t.b.Self["seed-search"].Seconds() }))
	rep.set("derand.seed_steps", float64(ref.SeedSteps))
	rep.set("derand.s_per_seed_step", ratio(searchS, float64(ref.SeedSteps)))

	// mpc: the superstep engine (the clique simulator's on cliquedet2).
	rep.set("mpc.supersteps", float64(traced[0].b.Supersteps))
	rep.median("mpc.superstep_p50_s", collect(traced, func(t tracedJob) float64 { return median(seconds(t.b.Steps)) }))
	rep.median("mpc.superstep_max_s", collect(traced, func(t tracedJob) float64 { return slices.Max(append(seconds(t.b.Steps), 0)) }))
	rep.median("mpc.ns_per_word", collect(traced, func(t tracedJob) float64 {
		return ratio(float64(t.s.Wall-t.b.Self["seed-search"]), float64(ref.Words))
	}))

	// clique: message-plane cost per delivered message.
	jobS := median(collect(plain, func(s sample) float64 { return s.Wall.Seconds() }))
	var messages float64
	if e.w.Algo == "cliquedet2" {
		messages = float64(ref.Messages)
	}
	rep.set("clique.messages", messages)
	rep.set("clique.ns_per_message", ratio(jobS*1e9, messages))
	rep.set("clique.bytes_per_message", ratio(median(collect(plain, func(s sample) float64 { return float64(s.AllocBytes) })), messages))
	rep.set("clique.objects_per_message", ratio(median(collect(plain, func(s sample) float64 { return float64(s.AllocObjects) })), messages))

	// Go runtime, over the untraced jobs.
	rep.median("runtime.alloc_objects", collect(plain, func(s sample) float64 { return float64(s.AllocObjects) }))
	rep.median("runtime.gc_cycles", collect(plain, func(s sample) float64 { return float64(s.GCCycles) }))
	rep.median("runtime.gc_pause_s", collect(plain, func(s sample) float64 { return s.GCPause.Seconds() }))

	e.fleetLayers(rep, fleets, twins, ref)

	// durable: the metered store of the untraced twin jobs.
	rep.median("durable.persist_calls", collect(sinks, func(s *timedSink) float64 { return float64(s.calls) }))
	rep.median("durable.persist_bytes", collect(sinks, func(s *timedSink) float64 { return float64(s.bytes) }))
	rep.median("durable.persist_s", collect(sinks, func(s *timedSink) float64 { return s.busy.Seconds() }))
	rep.set("durable.checkpoint_bytes", float64(ref.CheckpointBytes))

	rep.set("trace.overhead_ratio", ratio(median(collect(traced, func(t tracedJob) float64 { return t.s.Wall.Seconds() })), jobS))
	rep.set("rounds", float64(ref.Rounds))
	rep.set("violations", float64(ref.Violations))
	rep.set("fail_ratio", ratio(float64(e.failed), float64(e.attempted)))
	return nil
}

// fleetLayers reports the supervise and transport metrics of the multiproc
// jobs against their supervise.InProc twins (all 0 without a fleet).
func (e *runEnv) fleetLayers(rep *report, fleets []fleetSample, twins []sample, ref outcome) {
	fleetS := median(collect(fleets, func(f fleetSample) float64 { return f.Wall.Seconds() }))
	twinS := median(collect(twins, func(s sample) float64 { return s.Wall.Seconds() }))
	overhead, nsPerWord := 0.0, 0.0
	if len(fleets) > 0 {
		overhead, nsPerWord = twinOverhead(fleetS, twinS, ref.Words)
	}
	rep.median("supervise.inproc_twin_s", collect(twins, func(s sample) float64 { return s.Wall.Seconds() }))
	rep.set("supervise.overhead_s", overhead)
	rep.set("transport.ns_per_word", nsPerWord)
	rep.median("supervise.spawn_s", collect(fleets, func(f fleetSample) float64 { return f.life.Spawn.Seconds() }))
	rep.median("supervise.result_skew_s", collect(fleets, func(f fleetSample) float64 { return f.life.ResultSkew.Seconds() }))
	rep.median("supervise.tail_s", collect(fleets, func(f fleetSample) float64 { return f.life.Tail.Seconds() }))
	restarts := 0
	for _, f := range fleets {
		restarts += f.life.Restarts
	}
	rep.set("supervise.restarts", float64(restarts))
	rep.median("supervise.cpu_s", collect(fleets, func(f fleetSample) float64 { return f.SelfCPU.Seconds() }))
	rep.median("supervise.worker_cpu_s", collect(fleets, func(f fleetSample) float64 { return f.ChildCPU.Seconds() }))
	rep.median("supervise.worker_sys_s", collect(fleets, func(f fleetSample) float64 { return f.ChildSys.Seconds() }))
	rep.set("supervise.worker_maxrss_mb", childrenPeakRSSMB())
}

// twinOverhead is what supervision and transport add to a job: the
// multiproc wall time minus its in-process twin's, and that difference per
// model word in nanoseconds.
func twinOverhead(fleetS, twinS float64, words int64) (overheadS, nsPerWord float64) {
	overheadS = fleetS - twinS
	return overheadS, ratio(overheadS*1e9, float64(words))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	return collect(ds, time.Duration.Seconds)
}
