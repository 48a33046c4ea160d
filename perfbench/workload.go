package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/supervise"
	"github.com/rulingset/mprs/internal/trace"
)

// workload is one named input and the backend it runs on. README.md records
// why each was chosen and which layer it stresses.
type workload struct {
	Name  string
	Algo  string // det2, cliquedet2 or luby
	Graph string // internal/gen spec, built from the workload seed
	// Multiproc runs the job under supervise with two worker processes at
	// parallelism 1 and durable checkpoints; otherwise the job runs in this
	// process at GOMAXPROCS parallelism.
	Multiproc bool
}

var workloads = []workload{
	{Name: "det2-gnp32k", Algo: "det2", Graph: "gnp:n=32768,p=0.0003"},
	{Name: "cliquedet2-gnp4k", Algo: "cliquedet2", Graph: "gnp:n=4096,p=0.0045"},
	{Name: "luby-multiproc", Algo: "luby", Graph: "gnp:n=262144,p=0.00004", Multiproc: true},
}

const (
	machines        = 8
	chunkBits       = 8 // the default z, set explicitly so traced and untraced runs share it
	workers         = 2
	checkpointEvery = 4
	fleetTimeout    = 150 * time.Second
	reapTimeout     = 20 * time.Second
)

// outcome is the part of a driver's result the benchmark checks and reports.
type outcome struct {
	Members         []int32
	Beta            int
	Rounds          int
	Messages, Words int64
	Violations      int
	SeedSteps       int
	CheckpointBytes int64
}

func fromResult(r rulingset.Result) outcome {
	return outcome{
		Members: r.Members, Beta: r.Beta,
		Rounds: r.Stats.Rounds, Messages: r.Stats.Messages, Words: r.Stats.Words,
		Violations: len(r.Stats.Violations), SeedSteps: seedSteps(r.Phases),
		CheckpointBytes: r.Stats.CheckpointBytes,
	}
}

func fromClique(r rulingset.CliqueResult) outcome {
	return outcome{
		Members: r.Members, Beta: r.Beta,
		Rounds: r.Stats.Rounds, Messages: r.Stats.Messages, Words: r.Stats.Words,
		Violations: len(r.Stats.Violations), SeedSteps: seedSteps(r.Phases),
	}
}

func seedSteps(phases []rulingset.PhaseStat) int {
	n := 0
	for _, p := range phases {
		n += p.SeedSteps
	}
	return n
}

// digest fingerprints the member list.
func (o outcome) digest() [sha256.Size]byte {
	buf := make([]byte, 4*len(o.Members))
	for i, v := range o.Members {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return sha256.Sum256(buf)
}

// runEnv is one benchmark run: a workload at a seed, its input graph, and
// the tally of jobs attempted and failed.
type runEnv struct {
	w       workload
	seed    int64
	window  time.Duration
	scratch string // run-private directory for checkpoint stores
	g       *graph.Graph

	attempted, failed int
	ref               *outcome // first verified outcome; every later one must match it
	checks            []float64
}

// setup builds the input graph repeatedly (at least minBuilds times and for
// at least setupBudget) and returns the set-up and gen.Spec.Build times.
// Builds run back to back without a forced GC in between: on the small
// graphs a forced collection before each build makes the median vary more
// from process to process.
func (e *runEnv) setup() (setupS, buildS []float64, err error) {
	const (
		minBuilds   = 5
		maxBuilds   = 400
		setupBudget = time.Second
	)
	start := now()
	for i := 0; i < maxBuilds && (i < minBuilds || now().Sub(start) < setupBudget); i++ {
		t0 := now()
		sp, err := gen.ParseSpec(e.w.Graph)
		if err != nil {
			return nil, nil, err
		}
		t1 := now()
		g, err := sp.Build(e.seed)
		t2 := now()
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, t2.Sub(t0).Seconds())
		buildS = append(buildS, t2.Sub(t1).Seconds())
		e.g = g
	}
	return setupS, buildS, nil
}

// verify checks one job's outcome: the job returned without error, the
// members form a ruling set of the advertised radius (rulingset.Check), and
// rounds, words and members equal those of the first verified job. Every
// call is one attempted job; a failed check counts it as failed.
func (e *runEnv) verify(what string, out outcome, err error) bool {
	e.attempted++
	if err == nil {
		t := now()
		err = rulingset.Check(e.g, rulingset.Result{Members: out.Members, Beta: out.Beta})
		e.checks = append(e.checks, now().Sub(t).Seconds())
	}
	if err == nil && e.ref != nil {
		switch {
		case out.Rounds != e.ref.Rounds:
			err = fmt.Errorf("rounds %d, want %d", out.Rounds, e.ref.Rounds)
		case out.Words != e.ref.Words:
			err = fmt.Errorf("words %d, want %d", out.Words, e.ref.Words)
		case out.digest() != e.ref.digest():
			err = fmt.Errorf("members differ from the first job's")
		}
	}
	if err != nil {
		e.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s job failed: %v\n", what, err)
		return false
	}
	if e.ref == nil {
		e.ref = &out
	}
	return true
}

// options are the driver options of an in-process job. The multiproc
// workload's in-process twin mirrors its JobSpec: parallelism 1 and
// checkpoints every checkpointEvery supersteps.
func (e *runEnv) options(tr trace.Tracer, sink mpc.CheckpointSink) rulingset.Options {
	o := rulingset.Options{Machines: machines, ChunkBits: chunkBits, Seed: e.seed, Tracer: tr}
	if e.w.Multiproc {
		o.Parallelism = 1
		o.CheckpointEvery = checkpointEvery
		o.CheckpointSink = sink
	}
	return o
}

func (e *runEnv) drive(o rulingset.Options) (outcome, error) {
	switch e.w.Algo {
	case "det2":
		r, err := rulingset.DetRuling2(e.g, o)
		return fromResult(r), err
	case "cliquedet2":
		r, err := rulingset.CliqueDetRuling2(e.g, o)
		return fromClique(r), err
	case "luby":
		r, err := rulingset.LubyMIS(e.g, o)
		return fromResult(r), err
	}
	return outcome{}, fmt.Errorf("unknown algorithm %q", e.w.Algo)
}

// inprocJob runs the driver once in this process. A non-nil rec traces the
// job; a non-nil sink receives its checkpoints (multiproc twin only).
func (e *runEnv) inprocJob(rec *recorder, sink mpc.CheckpointSink) (sample, outcome, error) {
	var tr trace.Tracer
	if rec != nil {
		tr = rec
	}
	o := e.options(tr, sink)
	runtime.GC()
	p := startProbe()
	if rec != nil {
		rec.start()
	}
	out, err := e.drive(o)
	return p.stop(), out, err
}

// timedSink is a CheckpointSink decorator that meters the store it wraps.
type timedSink struct {
	inner mpc.CheckpointSink
	calls int
	bytes int64
	busy  time.Duration
}

// Persist implements mpc.CheckpointSink.
func (s *timedSink) Persist(round int, state [][]uint64) (int64, error) {
	t := now()
	n, err := s.inner.Persist(round, state)
	s.busy += now().Sub(t)
	s.calls++
	s.bytes += n
	return n, err
}

// durableJob is an in-process twin job whose checkpoints go through a
// timedSink over a fresh durable store.
func (e *runEnv) durableJob(rec *recorder) (sample, outcome, *timedSink, error) {
	dir, err := os.MkdirTemp(e.scratch, "durable-")
	if err != nil {
		return sample{}, outcome{}, nil, err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(dir, e.jobSpec("").Fingerprint(), 0)
	if err != nil {
		return sample{}, outcome{}, nil, err
	}
	sink := &timedSink{inner: store}
	s, out, err := e.inprocJob(rec, sink)
	return s, out, sink, err
}

// jobSpec is the multiproc workload's job, checkpointing into dir.
func (e *runEnv) jobSpec(dir string) supervise.JobSpec {
	return supervise.JobSpec{
		Algo:            e.w.Algo,
		GraphSpec:       e.w.Graph,
		GenSeed:         e.seed,
		Machines:        machines,
		Regime:          int(mpc.RegimeLinear),
		ChunkBits:       chunkBits,
		AlgoSeed:        e.seed,
		CheckpointEvery: checkpointEvery,
		CheckpointDir:   dir,
		Parallelism:     1,
	}
}

// twinJob runs the multiproc workload's JobSpec through supervise.InProc.
func (e *runEnv) twinJob() (sample, outcome, error) {
	dir, err := os.MkdirTemp(e.scratch, "twin-")
	if err != nil {
		return sample{}, outcome{}, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	p := startProbe()
	r, err := supervise.InProc{}.Run(e.jobSpec(dir))
	return p.stop(), fromResult(r), err
}

// fleetSample is one supervised multiproc job.
type fleetSample struct {
	sample
	life fleetTimes
}

// fleetJob runs the JobSpec under supervise.Run with this binary as its own
// worker. Worker CPU is read once every worker process has been reaped;
// withLifecycle timestamps the supervisor's lifecycle stream.
func (e *runEnv) fleetJob(withLifecycle bool) (fleetSample, outcome, error) {
	dir, err := os.MkdirTemp(e.scratch, "fleet-")
	if err != nil {
		return fleetSample{}, outcome{}, err
	}
	defer os.RemoveAll(dir)
	var cmds []*exec.Cmd
	self := supervise.SelfExec()
	// MaxRestarts stays 0 (fail fast): a worker crash fails the job instead
	// of hiding in a slower restarted run.
	cfg := supervise.Config{
		Workers: workers,
		Timeout: fleetTimeout,
		// Spawn runs on the goroutine that called supervise.Run.
		Spawn: func(env supervise.WorkerEnv) (*exec.Cmd, error) {
			cmd, err := self(env)
			if err == nil {
				cmds = append(cmds, cmd)
			}
			return cmd, err
		},
	}
	life := &lifeClock{}
	if withLifecycle {
		cfg.Lifecycle = life
	}
	runtime.GC()
	p := startProbe()
	life.t0 = p.wall
	r, runErr := supervise.Run(e.jobSpec(dir), cfg)
	fs := fleetSample{sample: p.stop()}
	if err := reaped(cmds); err != nil {
		return fs, outcome{}, err
	}
	fs.ChildCPU, fs.ChildSys = p.childCPU()
	if runErr != nil {
		return fs, outcome{}, runErr
	}
	if withLifecycle {
		fs.life, err = life.times(fs.Wall)
	}
	return fs, fromResult(r), err
}

// childCPU is the user+sys and sys CPU of children reaped since the probe.
func (p probe) childCPU() (cpu, sys time.Duration) {
	ru := getrusage(syscall.RUSAGE_CHILDREN)
	return cpuTime(ru) - cpuTime(p.children), tv(ru.Stime) - tv(p.children.Stime)
}

// reaped waits until every started worker process has been reaped by the
// supervisor, so its rusage is in RUSAGE_CHILDREN and no process outlives
// the job.
func reaped(cmds []*exec.Cmd) error {
	deadline := now().Add(reapTimeout)
	for _, c := range cmds {
		if c.Process == nil {
			continue
		}
		// Signal 0 succeeds while the process exists, zombie included.
		for syscall.Kill(c.Process.Pid, 0) == nil {
			if now().After(deadline) {
				return fmt.Errorf("worker pid %d still present %v after the job", c.Process.Pid, reapTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// lifeClock is the supervisor's lifecycle writer: it stamps each line with
// its arrival time, measured from t0.
type lifeClock struct {
	mu    sync.Mutex
	t0    time.Time
	lines []lifeLine
}

type lifeLine struct {
	At   time.Duration
	Line []byte
}

// Write implements io.Writer; the supervisor writes one JSON line per call.
func (l *lifeClock) Write(p []byte) (int, error) {
	at := now().Sub(l.t0)
	l.mu.Lock()
	l.lines = append(l.lines, lifeLine{At: at, Line: bytes.Clone(p)})
	l.mu.Unlock()
	return len(p), nil
}

// fleetTimes is what the lifecycle timeline of one job shows.
type fleetTimes struct {
	// Spawn runs from the call to the last worker's start; ResultSkew from
	// the first worker result to the last; Tail from the last result to
	// supervise.Run's return.
	Spawn, ResultSkew, Tail time.Duration
	Restarts                int
}

// times derives fleetTimes from the stamped lines of a job that returned at
// end.
func (l *lifeClock) times(end time.Duration) (fleetTimes, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ft fleetTimes
	first, last := time.Duration(-1), time.Duration(-1)
	for _, ln := range l.lines {
		var ev supervise.LifecycleEvent
		if err := json.Unmarshal(ln.Line, &ev); err != nil {
			return ft, fmt.Errorf("lifecycle line %q: %w", ln.Line, err)
		}
		switch ev.Kind {
		case "start":
			ft.Spawn = max(ft.Spawn, ln.At)
		case "restart":
			ft.Restarts++
		case "result":
			if first < 0 {
				first = ln.At
			}
			last = ln.At
		}
	}
	if last < 0 {
		return ft, fmt.Errorf("lifecycle stream has no result event")
	}
	ft.ResultSkew = last - first
	ft.Tail = end - last
	return ft, nil
}

// writeSpans stores the marks of one traced job, after a header line with
// the host stamp, as JSON Lines.
func writeSpans(path string, header any, marks []mark) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, m := range marks {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
