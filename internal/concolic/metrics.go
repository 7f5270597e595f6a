package concolic

import "dice/internal/telemetry"

// Metrics is the concolic engine's telemetry bundle: one instance per
// process (agent or in-process run), shared by every engine
// attached to the same registry. Recording happens once per round when
// the scheduler drains, so exploration's hot path is untouched. A nil
// *Metrics is a safe no-op.
type Metrics struct {
	frontierPeak *telemetry.Gauge
	paths        *telemetry.Counter
	solverCalls  *telemetry.Counter
}

// NewMetrics registers the dice_concolic_* families on reg. A nil
// registry returns nil (telemetry disabled).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		frontierPeak: reg.Gauge("dice_concolic_frontier_peak",
			"Largest pending-negation queue any round reached."),
		paths: reg.Counter("dice_concolic_paths_total",
			"Distinct execution paths discovered."),
		solverCalls: reg.Counter("dice_concolic_solver_calls_total",
			"Negation queries answered by a solver search."),
	}
}

// observeRound folds one shard's round report into the counters.
// frontierPeak keeps the high-water mark across rounds and shards.
func (m *Metrics) observeRound(rep *Report, frontierPeak int) {
	if m == nil {
		return
	}
	m.paths.Add(uint64(len(rep.Paths)))
	m.solverCalls.Add(uint64(rep.SolverCalls))
	if peak := float64(frontierPeak); peak > m.frontierPeak.Value() {
		m.frontierPeak.Set(peak)
	}
}
