package supervise

import (
	"context"
	"errors"
	"fmt"
	"os"

	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
)

// Local is what one in-process execution adds to its JobSpec: the hooks its
// caller keeps to itself. The zero value runs the spec as a standalone job,
// exactly as `mprs run -backend inproc` does without its observers.
type Local struct {
	// Graph is the input, already built from the spec; nil builds it.
	Graph *graph.Graph
	// Context, when non-nil, cancels the run at the next superstep barrier.
	Context context.Context
	// Transport carries the superstep exchange; nil is the in-memory router.
	Transport mpc.Transport
	// Supervised marks a run that executes a supervised multi-process job:
	// one of its workers, or the degraded fallback. Its checkpoints carry
	// the mprs-multiproc/1 fingerprint, and its trace holds every round — a
	// resumed run replays and re-emits the committed ones — so the file is
	// byte-identical to an uninterrupted run's. A standalone run stamps
	// mprs-run/1, and its resumed trace records the resume round in its
	// header and carries only the rounds after it: appended to the
	// interrupted run's trace, it reconstructs the uninterrupted stream.
	Supervised bool
	// Worker and Attempt place the run in the fault plan: the plan's disk
	// events for Worker attack its store at attempt 0 only. A standalone
	// run is worker 0, attempt 0.
	Worker, Attempt int
	// Resume, when non-nil, picks the checkpoint the run restarts from. It
	// receives the run's durable store (nil without CheckpointDir); a nil
	// state starts from round 1.
	Resume func(*durable.Store) (*mpc.ResumeState, error)
	// Sinks observe every committed superstep after the trace file.
	Sinks trace.Multi
	// Telemetry, when non-nil, observes the run as well and meters the
	// bytes its checkpoint store persists.
	Telemetry *telemetry.Collector
}

// Execute runs spec's MPC driver in this process. It is the one run path
// behind `mprs run -backend inproc`, InProc, every supervised worker and
// the degraded fallback, so their members, canonical stats, trace bytes and
// checkpoint bytes cannot drift apart.
func Execute(spec JobSpec, l Local) (rulingset.Result, error) {
	drv, ok := rulingset.MPCDrivers[spec.Algo]
	if !ok {
		return rulingset.Result{}, fmt.Errorf("supervise: %q is not an MPC algorithm", spec.Algo)
	}
	return execute(spec, l, func(g *graph.Graph, o rulingset.Options) (rulingset.Result, error) {
		return drv.Run(g, spec.Alpha, spec.Beta, o)
	})
}

// ExecuteClique is Execute for the congested-clique drivers, whose result
// type differs.
func ExecuteClique(spec JobSpec, l Local) (rulingset.CliqueResult, error) {
	drive, ok := rulingset.CliqueDrivers[spec.Algo]
	if !ok {
		return rulingset.CliqueResult{}, fmt.Errorf("supervise: %q is not a congested-clique algorithm", spec.Algo)
	}
	return execute(spec, l, drive)
}

// execute validates spec, builds its options, durable store, resume point
// and trace file, and runs drive.
func execute[R any](spec JobSpec, l Local, drive func(*graph.Graph, rulingset.Options) (R, error)) (res R, retErr error) {
	if err := spec.Validate(); err != nil {
		return res, err
	}
	plan, err := chaos.Parse(spec.Faults, spec.FaultSeed)
	if err != nil {
		return res, err
	}
	g := l.Graph
	if g == nil {
		if g, err = spec.BuildGraph(); err != nil {
			return res, err
		}
	}
	opts := spec.options(plan.Sim)
	opts.Context, opts.Transport = l.Context, l.Transport

	var store *durable.Store
	if spec.CheckpointDir != "" {
		schema := standaloneSchema
		if l.Supervised {
			schema = supervisedSchema
		}
		store, err = spec.openStore(spec.CheckpointDir, spec.fingerprint(schema), chaos.NewDiskFS(plan, l.Worker, l.Attempt))
		if err != nil {
			return res, err
		}
		opts.CheckpointSink = store
		if l.Telemetry != nil {
			// Meter persisted checkpoint bytes without touching them: the
			// wrapper delegates to the real store byte-for-byte.
			opts.CheckpointSink = l.Telemetry.WrapCheckpointSink(store)
		}
	}
	if l.Resume != nil {
		if opts.Resume, err = l.Resume(store); err != nil {
			return res, err
		}
	}

	var sinks trace.Multi
	if spec.TraceFile != "" {
		resumedFrom := 0
		if opts.Resume != nil && !l.Supervised {
			resumedFrom = opts.Resume.Round
		}
		f, err := os.Create(spec.TraceFile)
		if err != nil {
			return res, err
		}
		tr := trace.NewJSONL(f)
		if err := tr.WriteHeader(spec.traceHeader(g, resumedFrom)); err != nil {
			if cerr := f.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return res, fmt.Errorf("trace %s: %w", spec.TraceFile, err)
		}
		defer func() {
			if err := tr.Close(); err != nil && retErr == nil {
				retErr = fmt.Errorf("trace %s: %w", spec.TraceFile, err)
			}
		}()
		if resumedFrom > 0 {
			sinks = append(sinks, trace.FromRound{Sink: tr, After: resumedFrom})
		} else {
			sinks = append(sinks, tr)
		}
	}
	sinks = append(sinks, l.Sinks...)
	if l.Telemetry != nil {
		sinks = append(sinks, l.Telemetry)
	}
	if len(sinks) > 0 {
		opts.Tracer = sinks
	}
	return drive(g, opts)
}

// resumeLatest restarts from the store's newest valid checkpoint, or from
// round 1 when there is no store or nothing was persisted before the crash
// — slower, still bit-identical.
func resumeLatest(st *durable.Store) (*mpc.ResumeState, error) {
	if st == nil {
		return nil, nil
	}
	meta, state, err := st.LoadLatest()
	switch {
	case err == nil:
		return &mpc.ResumeState{Round: meta.Round, State: state}, nil
	case errors.Is(err, durable.ErrNoCheckpoint):
		return nil, nil
	}
	return nil, err
}

// InProc runs a job in this process, as a standalone job: the classic
// single-process path of `mprs run -backend inproc`.
type InProc struct{}

// Run executes spec through Execute.
func (InProc) Run(spec JobSpec) (rulingset.Result, error) {
	return Execute(spec, Local{})
}
