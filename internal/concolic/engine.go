package concolic

import (
	"fmt"
	"time"

	"dice/internal/solver"
	"dice/internal/sym"
)

// RunContext is handed to the instrumented handler for one concrete
// execution. It resolves symbolic inputs to their concrete values for this
// run and records the path condition at every branch. A replay context
// (RunOnce) hands out the inputs with no symbolic half, so the run builds
// no term and records nothing.
type RunContext struct {
	env     sym.Env
	vars    map[string]*sym.Var
	replay  bool
	path    []sym.Expr // oriented: each conjunct is true on this run
	assumes []sym.Expr // non-negatable well-formedness constraints
	dropped int        // constraints suppressed via ConcretizeOpaque
	notes   []string
}

// Input returns the concolic value of the named symbolic input. It panics
// on unknown names: that is an instrumentation bug, not an input error.
func (rc *RunContext) Input(name string) Value {
	v, ok := rc.vars[name]
	if !ok {
		panic(fmt.Sprintf("concolic: unknown symbolic input %q", name))
	}
	if rc.replay {
		return Concrete(rc.env[v.ID], v.W)
	}
	return Value{C: rc.env[v.ID] & widthMask(v.W), S: v, W: v.W}
}

// Env exposes the concrete assignment driving this run.
func (rc *RunContext) Env() sym.Env { return rc.env }

// Branch evaluates cond concretely, records the oriented path constraint
// when cond is symbolic, and returns the concrete outcome. Instrumented
// code uses it for every conditional: `if rc.Branch(Lt(x, y)) { ... }`.
func (rc *RunContext) Branch(cond Value) bool {
	taken := cond.C != 0
	if cond.S != nil {
		e := boolExpr(cond)
		if !taken {
			e = sym.NewNot(e)
		}
		// Skip constraints that folded to constants; they carry no choice.
		if _, isConst := e.(sym.BoolConst); !isConst {
			rc.path = append(rc.path, e)
		}
	}
	return taken
}

// Assume records a constraint that must hold on this path without
// representing a negatable branch (e.g. well-formedness the caller
// guarantees). It is conjoined to every solver query for this path but is
// never itself negated, so all generated inputs satisfy it.
func (rc *RunContext) Assume(cond Value) {
	if cond.S == nil {
		return
	}
	e := boolExpr(cond)
	if cond.C == 0 {
		e = sym.NewNot(e)
	}
	if _, isConst := e.(sym.BoolConst); !isConst {
		rc.assumes = append(rc.assumes, e)
	}
}

// ConcretizeOpaque returns the concrete value of v and drops its symbolic
// part without recording a constraint. This is the paper's hash-function
// escape hatch: constraints through irreversible functions are suppressed
// rather than recorded.
func (rc *RunContext) ConcretizeOpaque(v Value) uint64 {
	if v.S != nil {
		rc.dropped++
	}
	return v.C
}

// Note attaches a free-form annotation to the run (visible in the path
// result), used by oracles for explanation strings.
func (rc *RunContext) Note(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// PathSig identifies an execution path: the 128-bit rolling fingerprint
// of its assumption constraints, a separator, and its oriented branch
// constraints — computed incrementally along the path instead of
// rendering the conjunction to a string. Dedup maps keyed on PathSig
// chain the underlying constraints and verify them structurally on
// lookup, so a fingerprint collision never merges two distinct paths.
type PathSig = sym.Fingerprint

// PathResult describes one explored execution.
type PathResult struct {
	Seq     int        // run sequence number (0 = seed run)
	Env     sym.Env    // concrete input assignment for the run
	Path    []sym.Expr // oriented branch constraints, in execution order
	Assumes []sym.Expr // non-negatable well-formedness constraints
	Output  any        // handler return value
	Notes   []string   // handler annotations
	// Verdict is what the engine's judge (Engine.Judge) concluded from
	// this path alone; nil without a judge, or when it had nothing to say.
	Verdict any
}

// Constraints returns the full path condition (assumptions ∧ branches).
func (p *PathResult) Constraints() []sym.Expr {
	out := make([]sym.Expr, 0, len(p.Assumes)+len(p.Path))
	out = append(out, p.Assumes...)
	return append(out, p.Path...)
}

// Options configures an exploration.
type Options struct {
	// MaxRuns bounds the number of handler executions (0 = 10000).
	MaxRuns int
	// Workers is the number of parallel exploration goroutines (0 = 1).
	// The paper's Oasis "can execute multiple explorations in parallel".
	Workers int
	// Cancel, when non-nil, stops exploration as soon as it is closed
	// (checked between runs). DiCE uses it to halt online exploration
	// when the operator or an experiment ends the testing window.
	Cancel <-chan struct{}
	// State, when non-nil, carries exploration memory across rounds:
	// paths and negations already explored by prior rounds are skipped —
	// the paper's continuous online mode without duplicated work.
	State *ExploreState
	// Metrics, when non-nil, receives per-round exploration telemetry
	// (frontier peak, paths, solver calls). It is
	// process-local — recorded once per round at scheduler drain, never
	// shipped over the wire — so the hot path pays nothing for it.
	Metrics *Metrics
}

// Handler is the instrumented message-handler body: it executes one input
// (read through rc.Input) against checkpointed state and returns an
// arbitrary output for the oracles.
type Handler func(rc *RunContext) any

// Engine explores all execution paths of a Handler reachable by varying
// the declared symbolic inputs, starting from a seed assignment.
type Engine struct {
	opts    Options
	vars    []*sym.Var
	byName  map[string]*sym.Var
	seed    sym.Env
	handler Handler
	judge   func(*PathResult, *solver.Solver) any
	nextID  int
}

// NewEngine creates an engine for the given handler.
func NewEngine(handler Handler, opts Options) *Engine {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 10000
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	return &Engine{
		opts:    opts,
		byName:  make(map[string]*sym.Var),
		seed:    make(sym.Env),
		handler: handler,
	}
}

// Var declares a symbolic input with a seed (currently observed) value.
// The paper marks selectively chosen small fields of the UPDATE message
// symbolic; each such field becomes one Var.
func (e *Engine) Var(name string, width int, seed uint64) {
	if _, dup := e.byName[name]; dup {
		panic(fmt.Sprintf("concolic: duplicate symbolic input %q", name))
	}
	v := sym.NewVar(e.nextID, name, width)
	e.nextID++
	e.vars = append(e.vars, v)
	e.byName[name] = v
	e.seed[v.ID] = seed & widthMask(width)
}

// Judge installs a per-path oracle: the scheduler calls j once for every
// path new to the round (and, with cross-round state attached, to every
// prior round), on the worker that just found it and outside the
// scheduler's lock, and stores what it returns in PathResult.Verdict.
// Everything an oracle can decide from one path — solver queries over its
// path condition, witness validation through RunOnce — then overlaps
// with the rest of the exploration instead of following it; only what
// depends on the order of paths is left for after Explore returns. j
// runs concurrently with itself and with the handler, must not retain or
// modify the PathResult, and must be installed before Explore.
//
// j is handed the solver of the worker that found the path (the seed
// run's is one the pool then inherits), for that call only: a query
// whose prefix is the path condition, or one of its prefixes, starts
// from the snapshots the path's own negations propagate, and the links j
// builds are ones those negations reuse. No other goroutine touches the
// solver during the call.
func (e *Engine) Judge(j func(*PathResult, *solver.Solver) any) { e.judge = j }

// Report summarizes an exploration.
type Report struct {
	Paths []PathResult // paths new to this round, in discovery order
	Runs  int          // handler executions (including duplicates)
	// SolverCalls counts the negation queries issued to the solver.
	SolverCalls int
	SolverSat   int
	SolverUnsat int
	// CacheHits is always 0: only the frozen benchmark/ reads it, and it
	// goes with solver.cache_hit_ratio in the next benchmark issue.
	CacheHits    int
	BranchesSeen int // distinct oriented constraints observed
	// SkippedPaths / SkippedNegations count work suppressed by the
	// cross-round ExploreState (0 when Options.State is nil).
	SkippedPaths     int
	SkippedNegations int
	Elapsed          time.Duration
	Budget           string // which budget stopped exploration, if any
}

// Replay is one concrete re-execution (RunOnce): the full assignment it
// ran under, the seed filling what the caller left out, and what the
// handler returned.
type Replay struct {
	Env    sym.Env
	Output any
}

// RunOnce executes the handler once under a specific concrete assignment.
// DiCE uses it to validate oracle witnesses by re-execution: a witness
// produced through constraint solving is only reported after the handler
// confirms it concretely (guarding against concretization imprecision in
// recorded constraints). The run is the same handler on the same fresh
// state as an explored one, with every input concrete: the oracles read
// only its output, so it interns no term and records no path.
func (e *Engine) RunOnce(env sym.Env) Replay {
	merged := cloneEnv(e.seed)
	for id, v := range env {
		merged[id] = v
	}
	rc := &RunContext{env: merged, vars: e.byName, replay: true}
	return Replay{Env: merged, Output: e.handler(rc)}
}

// Explore runs the concolic exploration loop — seed run, then a worker
// pool draining the frontier of pending negations — and returns its
// report. The mechanics live in frontier.go (what to try next) and
// scheduler.go (who tries it); Explore runs this engine as a fleet of
// one shard (see ExploreFleet for the multi-node form).
func (e *Engine) Explore() *Report {
	return newScheduler(nil, []*Engine{e}, e.opts.Workers).run()[0]
}

func cloneEnv(e sym.Env) sym.Env {
	c := make(sym.Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}
