package rulingset

import "github.com/rulingset/mprs/internal/graph"

// MPCDriver is one MPC-simulator algorithm behind its command-line name.
type MPCDriver struct {
	// Run executes the algorithm. alpha and beta parametrize the (α,β)- and
	// β-ruling drivers; the others ignore them.
	Run func(g *graph.Graph, alpha, beta int, o Options) (Result, error)
	// SingleCluster marks the drivers whose whole run is one cluster's
	// replayable superstep log: only they support durable checkpoints,
	// resume and the multi-process backend (see Options.CheckpointSink).
	SingleCluster bool
}

// MPCDrivers maps each MPC algorithm name to its driver — the one table the
// CLI, the supervised backend and the benchmark registry dispatch through.
var MPCDrivers = map[string]MPCDriver{
	"luby":    {func(g *graph.Graph, _, _ int, o Options) (Result, error) { return LubyMIS(g, o) }, true},
	"detluby": {func(g *graph.Graph, _, _ int, o Options) (Result, error) { return DetLubyMIS(g, o) }, true},
	"rand2":   {func(g *graph.Graph, _, _ int, o Options) (Result, error) { return RandRuling2(g, o) }, true},
	"det2":    {func(g *graph.Graph, _, _ int, o Options) (Result, error) { return DetRuling2(g, o) }, true},
	"randbeta": {func(g *graph.Graph, _, beta int, o Options) (Result, error) {
		return RandRulingBeta(g, beta, o)
	}, false},
	"detbeta": {func(g *graph.Graph, _, beta int, o Options) (Result, error) {
		return DetRulingBeta(g, beta, o)
	}, false},
	"randab": {RandRulingAlphaBeta, false},
	"detab":  {DetRulingAlphaBeta, false},
}

// CliqueDrivers maps each congested-clique algorithm name to its driver.
var CliqueDrivers = map[string]func(*graph.Graph, Options) (CliqueResult, error){
	"clique2":    CliqueRandRuling2,
	"cliquedet2": CliqueDetRuling2,
}
