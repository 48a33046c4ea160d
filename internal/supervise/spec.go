// Package supervise runs one simulation job across real OS worker processes
// and keeps it alive: per-worker heartbeats with deterministic superstep
// progress, timeout/retry with capped exponential backoff, and kill-and-
// restart of crashed or stalled workers from the newest valid durable
// checkpoint via the existing resume-by-replay path.
//
// Every worker executes the full deterministic job (see internal/transport
// for why the execution is replicated) and owns a contiguous block of
// machines whose superstep messages it is authoritative for. The supervisor
// is a star hub: it relays each worker's Messages frames to the others,
// retains the newest frame per worker for restart re-delivery, and watches
// liveness. Because workers proceed in barrier lockstep, no worker is ever
// more than one exchange ahead of another, so the newest retained frame per
// peer is exactly what a restarting worker can still need.
//
// The contract is cross-backend bit-identity: the multi-process backend —
// including runs where the supervisor kills and restarts a worker mid-job —
// produces outputs, deterministic Stats columns and trace bytes identical to
// the in-process backend's. Both backends describe a job with one JobSpec,
// and Execute is the one function that runs a spec in a process: the
// in-process backend, every worker and the degraded fallback call it.
package supervise

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"github.com/rulingset/mprs/internal/buildinfo"
	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/trace"
)

// JobSpec is the self-contained, JSON-serializable description of one
// `mprs run` job — everything a process needs to deterministically reproduce
// it, in-process (Execute) or across supervised workers (Run). Every field
// feeds the deterministic replay; observability knobs (TraceFile) do not
// alter it.
type JobSpec struct {
	// Algo names the algorithm: an MPC driver (see rulingset.MPCDrivers), a
	// congested-clique driver (rulingset.CliqueDrivers) or greedy, the
	// sequential baseline the CLI runs without a simulator. Only the
	// single-cluster MPC drivers run on the multi-process backend.
	Algo string `json:"algo"`
	// GraphSpec generates the input (see internal/gen); GraphFile loads a
	// graph file (text edge list or binary, see graph.ReadFile) instead.
	// Exactly one must be set.
	GraphSpec string `json:"graph_spec,omitempty"`
	GraphFile string `json:"graph_file,omitempty"`
	// GenSeed seeds the generator.
	GenSeed int64 `json:"gen_seed"`

	Machines    int     `json:"machines"`
	Regime      int     `json:"regime"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	MemoryWords int     `json:"memory_words,omitempty"`
	LinearSlack int     `json:"linear_slack,omitempty"`
	ChunkBits   int     `json:"chunk_bits,omitempty"`
	AlgoSeed    int64   `json:"algo_seed"`
	Strict      bool    `json:"strict,omitempty"`
	// Beta and Alpha parametrize randbeta/detbeta (Beta) and randab/detab
	// (both). They are not part of Fingerprint: the drivers that read them
	// chain several clusters and never checkpoint durably.
	Beta  int `json:"beta,omitempty"`
	Alpha int `json:"alpha,omitempty"`

	// Faults and FaultSeed are the job's fault plan (internal/chaos
	// grammar). Its sim layer reproduces the simulated fault schedule on
	// every backend; its substrate layers are read by the supervisor (wire:
	// and proc: events) and by each worker (disk: events). Only the sim
	// layer enters Fingerprint.
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`

	// CheckpointEvery and CheckpointDir enable durable checkpoints; each
	// worker persists under its own w<id> subdirectory of CheckpointDir, and
	// a restarted worker resumes from its newest valid checkpoint. Without a
	// checkpoint dir a restarted worker recomputes from round 1 — slower,
	// still bit-identical.
	CheckpointEvery  int    `json:"checkpoint_every,omitempty"`
	CheckpointDir    string `json:"checkpoint_dir,omitempty"`
	CheckpointRetain int    `json:"checkpoint_retain,omitempty"`

	// TraceFile, when set, receives the deterministic JSONL superstep trace,
	// written by worker 0 only (the replicas would write identical bytes).
	TraceFile string `json:"trace_file,omitempty"`

	// Parallelism is the per-worker step execution pool size (0 =
	// GOMAXPROCS, 1 = serial); every worker inherits it. Deliberately NOT
	// part of Fingerprint: outputs, traces and checkpoint bytes are
	// bit-identical at every level, so durable checkpoints are portable
	// across parallelism settings.
	Parallelism int `json:"parallelism,omitempty"`
}

// SpecLabel renders the input source for trace headers, fingerprints and
// table titles.
func (s JobSpec) SpecLabel() string {
	if s.GraphSpec != "" {
		return s.GraphSpec
	}
	return "file:" + s.GraphFile
}

// Validate rejects specs no backend could run.
func (s JobSpec) Validate() error {
	_, mpcAlgo := rulingset.MPCDrivers[s.Algo]
	_, cliqueAlgo := rulingset.CliqueDrivers[s.Algo]
	if !mpcAlgo && !cliqueAlgo && s.Algo != "greedy" {
		return fmt.Errorf("supervise: unknown algorithm %q", s.Algo)
	}
	if (s.GraphSpec == "") == (s.GraphFile == "") {
		return fmt.Errorf("supervise: exactly one of GraphSpec and GraphFile must be set")
	}
	if s.Machines < 1 {
		return fmt.Errorf("supervise: machines %d < 1", s.Machines)
	}
	if s.CheckpointDir != "" && s.CheckpointEvery <= 0 {
		return fmt.Errorf("supervise: CheckpointDir requires CheckpointEvery > 0")
	}
	if s.CheckpointDir != "" && !rulingset.MPCDrivers[s.Algo].SingleCluster {
		return fmt.Errorf("supervise: algorithm %q does not support durable checkpointing (single-cluster only: luby, detluby, rand2, det2)", s.Algo)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("supervise: parallelism %d < 0", s.Parallelism)
	}
	plan, err := chaos.Parse(s.Faults, s.FaultSeed)
	if err != nil {
		return err
	}
	if len(plan.Disk) > 0 && s.CheckpointDir == "" {
		return fmt.Errorf("supervise: disk: fault events need -checkpoint-dir (they attack the durable checkpoint store)")
	}
	return nil
}

// BuildGraph deterministically reconstructs the input graph.
func (s JobSpec) BuildGraph() (*graph.Graph, error) {
	if s.GraphFile != "" {
		return graph.ReadFile(s.GraphFile)
	}
	sp, err := gen.ParseSpec(s.GraphSpec)
	if err != nil {
		return nil, err
	}
	return sp.Build(s.GenSeed)
}

// Fingerprint renders the canonical configuration string stamped into the
// workers' durable checkpoints, so a restarted worker refuses to resume a
// different configuration's state.
func (s JobSpec) Fingerprint() string { return s.fingerprint(supervisedSchema) }

// Fingerprint schemas: a standalone in-process job's store, and the stores
// of a supervised job's workers.
const (
	standaloneSchema = "mprs-run/1"
	supervisedSchema = "mprs-multiproc/1"
)

// fingerprint renders the spec under schema. Every knob that feeds the
// deterministic replay is included; observability knobs are not, and of
// the fault plan only its sim layer is: substrate faults attack the
// machinery, not the computation, so checkpoints written under them stay
// resumable by clean runs (the degraded fallback depends on exactly that).
func (s JobSpec) fingerprint(schema string) string {
	return fmt.Sprintf("%s algo=%s spec=%s gen-seed=%d machines=%d regime=%d epsilon=%g memory=%d slack=%d chunk=%d algo-seed=%d strict=%t faults=%s fault-seed=%d checkpoint-every=%d",
		schema, s.Algo, s.SpecLabel(), s.GenSeed, s.Machines, s.Regime, s.Epsilon, s.MemoryWords,
		s.LinearSlack, s.ChunkBits, s.AlgoSeed, s.Strict, chaos.SimSpec(s.Faults), s.FaultSeed, s.CheckpointEvery)
}

// options builds the rulingset.Options the spec describes, with sim as the
// fault layer (context, transport, trace and durable wiring are added by
// the caller).
func (s JobSpec) options(sim *mpc.FaultPlan) rulingset.Options {
	return rulingset.Options{
		Machines:        s.Machines,
		Regime:          mpc.Regime(s.Regime),
		Epsilon:         s.Epsilon,
		MemoryWords:     s.MemoryWords,
		LinearSlack:     s.LinearSlack,
		ChunkBits:       s.ChunkBits,
		Seed:            s.AlgoSeed,
		Strict:          s.Strict,
		Faults:          sim,
		CheckpointEvery: s.CheckpointEvery,
		Parallelism:     s.Parallelism,
	}
}

// buildStamp renders the binary's build info for trace headers and
// checkpoint files; a pure function of the binary, so runs of the same
// build — replicated workers included — stamp identical bytes.
func buildStamp() json.RawMessage {
	data, err := json.Marshal(buildinfo.Get())
	if err != nil {
		return nil
	}
	return data
}

// traceHeader is the job's trace header, the one every backend writes for
// input g. The congested clique simulates one machine per vertex.
func (s JobSpec) traceHeader(g *graph.Graph, resumedFrom int) trace.Header {
	machines := s.Machines
	if _, ok := rulingset.CliqueDrivers[s.Algo]; ok {
		machines = g.N()
	}
	return trace.Header{
		Algo:        s.Algo,
		Spec:        s.SpecLabel(),
		Seed:        s.AlgoSeed,
		Machines:    machines,
		Build:       buildStamp(),
		ResumedFrom: resumedFrom,
	}
}

// openStore opens the durable checkpoint store rooted at dir (creating it),
// stamped with fingerprint, through fsys (nil means the real filesystem) —
// the seam disk fault events enter through.
func (s JobSpec) openStore(dir, fingerprint string, fsys durable.FS) (*durable.Store, error) {
	st, err := durable.OpenFS(dir, fingerprint, s.CheckpointRetain, fsys)
	if err != nil {
		return nil, err
	}
	st.SetBuildStamp(buildStamp())
	return st, nil
}

// workerCheckpointDir is worker id's private subdirectory of the job's
// checkpoint dir — replicated workers persist identical state, but each owns
// its files so a mid-write crash of one worker cannot corrupt another's
// newest checkpoint.
func (s JobSpec) workerCheckpointDir(id int) string {
	return filepath.Join(s.CheckpointDir, fmt.Sprintf("w%d", id))
}
