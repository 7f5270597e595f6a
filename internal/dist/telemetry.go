package dist

import (
	"time"

	"dice/internal/telemetry"
)

// Metrics is the coordinator-side telemetry bundle: RPC client counters,
// round accounting, relay and replica-pool gauges, per-node health. One
// instance is shared by every client and the pool of one coordinator —
// attach it with WithTelemetry. A nil *Metrics is a safe no-op
// everywhere, so the instrumented hot paths never branch on "telemetry
// enabled?" (the mechanism behind the <5% overhead bound).
type Metrics struct {
	rpcCalls   *telemetry.CounterVec   // method
	rpcLatency *telemetry.HistogramVec // method
	rpcSent    *telemetry.CounterVec   // method
	rpcRecv    *telemetry.CounterVec   // method
	rpcErrors  *telemetry.CounterVec   // method, kind (timeout | broken)
	reconnects *telemetry.CounterVec   // node

	rounds            *telemetry.Counter
	roundDuration     *telemetry.Histogram
	relayDepth        *telemetry.Gauge
	relaySteps        *telemetry.Counter
	relayStepWidth    *telemetry.Histogram
	witnessBatches    *telemetry.Counter
	witnessesInjected *telemetry.Counter
	witnessesSkipped  *telemetry.Counter
	propagationSteps  *telemetry.Counter
	nodeHealth        *telemetry.GaugeVec   // node, state
	nodeFaults        *telemetry.CounterVec // node

	poolDepth      *telemetry.Gauge
	poolWorkers    *telemetry.Gauge
	poolSteals     *telemetry.Counter
	poolReconnects *telemetry.Counter
	poolFallbacks  *telemetry.Counter
}

// NewMetrics registers the coordinator's metric families on reg. A nil
// registry returns nil (telemetry disabled).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		rpcCalls: reg.CounterVec("dice_rpc_client_calls_total",
			"RPC requests issued, by method.", "method"),
		rpcLatency: reg.HistogramVec("dice_rpc_client_latency_seconds",
			"RPC round trip from send to decoded response.", nil, "method"),
		rpcSent: reg.CounterVec("dice_rpc_client_sent_bytes_total",
			"Request payload bytes written, by method.", "method"),
		rpcRecv: reg.CounterVec("dice_rpc_client_recv_bytes_total",
			"Response payload bytes read, by method.", "method"),
		rpcErrors: reg.CounterVec("dice_rpc_client_errors_total",
			"Transport-level call failures, by method and kind (timeout, broken).",
			"method", "kind"),
		reconnects: reg.CounterVec("dice_rpc_client_reconnects_total",
			"Successful re-dial + re-handshake cycles, by node.", "node"),

		rounds: reg.Counter("dice_coordinator_rounds_total",
			"Distributed federated rounds completed."),
		roundDuration: reg.Histogram("dice_coordinator_round_duration_seconds",
			"Wall-clock duration of completed rounds.", nil),
		relayDepth: reg.Gauge("dice_coordinator_relay_queue_depth",
			"In-flight witness relay events awaiting delivery, as of the last relay step."),
		relaySteps: reg.Counter("dice_coordinator_relay_steps_total",
			"Virtual time steps relayed: one pipelined inject_witness fan-out each."),
		relayStepWidth: reg.Histogram("dice_coordinator_relay_step_width",
			"Agents addressed per relay step (the fan-out's pipelining width).",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		witnessBatches: reg.Counter("dice_coordinator_witness_batches_total",
			"inject_witness calls that carried more than one delivery: one agent's share of a relay step."),
		witnessesInjected: reg.Counter("dice_coordinator_witnesses_injected_total",
			"Witnesses injected and checked across rounds."),
		witnessesSkipped: reg.Counter("dice_coordinator_witnesses_skipped_total",
			"Witnesses dropped by the per-round cap."),
		propagationSteps: reg.Counter("dice_coordinator_propagation_steps_total",
			"Relay delivery steps across all witness lifecycles."),
		nodeHealth: reg.GaugeVec("dice_node_health",
			"Per-node health state (1 = node is in this state).", "node", "state"),
		nodeFaults: reg.CounterVec("dice_node_faults_total",
			"Connection faults (broken streams, call timeouts), by node.", "node"),

		poolDepth: reg.Gauge("dice_replica_pool_queue_depth",
			"Shards queued for the replica pool."),
		poolWorkers: reg.Gauge("dice_replica_pool_workers",
			"Live replica pool workers."),
		poolSteals: reg.Counter("dice_replica_pool_steals_total",
			"Shards re-enqueued after their replica died mid-explore."),
		poolReconnects: reg.Counter("dice_replica_pool_reconnects_total",
			"Successful replica re-dial + re-handshake cycles."),
		poolFallbacks: reg.Counter("dice_replica_pool_agent_fallbacks_total",
			"Targets that fell back from the replica pool to their agent."),
	}
}

// clientSent records one issued request (call count + payload bytes).
func (m *Metrics) clientSent(method string, bytes int) {
	if m == nil {
		return
	}
	m.rpcCalls.With(method).Inc()
	m.rpcSent.With(method).Add(uint64(bytes))
}

// clientDone records one completed round trip. start is zero when the
// call was issued before telemetry attached (the handshake itself).
func (m *Metrics) clientDone(method string, start time.Time, recvBytes int) {
	if m == nil {
		return
	}
	m.rpcRecv.With(method).Add(uint64(recvBytes))
	if !start.IsZero() {
		m.rpcLatency.With(method).Observe(time.Since(start).Seconds())
	}
}

// clientError records one transport-level failure.
func (m *Metrics) clientError(method, kind string) {
	if m == nil {
		return
	}
	m.rpcErrors.With(method, kind).Inc()
}

// noteClientReconnect records one successful reconnect for node.
func (m *Metrics) noteClientReconnect(node string) {
	if m == nil {
		return
	}
	m.reconnects.With(node).Inc()
}

// noteNodeFault records one connection fault attributed to node.
func (m *Metrics) noteNodeFault(node string) {
	if m == nil {
		return
	}
	m.nodeFaults.With(node).Inc()
}

// noteRound folds one finished round into the counters and refreshes the
// per-node health gauges (exactly one state gauge per node reads 1).
func (m *Metrics) noteRound(res *RoundResult) {
	if m == nil {
		return
	}
	m.rounds.Inc()
	m.roundDuration.Observe(res.Elapsed.Seconds())
	m.witnessesInjected.Add(uint64(res.WitnessesInjected))
	m.witnessesSkipped.Add(uint64(res.WitnessesSkipped))
	m.propagationSteps.Add(uint64(res.PropagationSteps))
	for node, h := range res.Health {
		for _, state := range []string{HealthHealthy, HealthDegraded, HealthFailed} {
			v := 0.0
			if h.State == state {
				v = 1
			}
			m.nodeHealth.With(node, state).Set(v)
		}
	}
}

func (m *Metrics) setRelayDepth(depth int) {
	if m == nil {
		return
	}
	m.relayDepth.Set(float64(depth))
}

// noteRelayStep records one relay time step: its width is the number of
// agents addressed, and each agent handed more than one delivery counts
// as a batch.
func (m *Metrics) noteRelayStep(calls []*InjectBatchParams) {
	if m == nil {
		return
	}
	m.relaySteps.Inc()
	m.relayStepWidth.Observe(float64(len(calls)))
	for _, p := range calls {
		if len(p.Deliveries) > 1 {
			m.witnessBatches.Inc()
		}
	}
}

func (m *Metrics) setPoolDepth(depth int) {
	if m == nil {
		return
	}
	m.poolDepth.Set(float64(depth))
}

func (m *Metrics) setPoolWorkers(n int) {
	if m == nil {
		return
	}
	m.poolWorkers.Set(float64(n))
}

func (m *Metrics) notePoolSteal() {
	if m == nil {
		return
	}
	m.poolSteals.Inc()
}

func (m *Metrics) notePoolReconnect() {
	if m == nil {
		return
	}
	m.poolReconnects.Inc()
}

func (m *Metrics) notePoolFallback() {
	if m == nil {
		return
	}
	m.poolFallbacks.Inc()
}

// serverMetrics instruments one rpcServer (agent or replica side). A nil
// *serverMetrics is a safe no-op.
type serverMetrics struct {
	requests *telemetry.CounterVec // method
	errors   *telemetry.CounterVec // method
	draining *telemetry.Gauge
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	return &serverMetrics{
		requests: reg.CounterVec("dice_rpc_server_requests_total",
			"RPC requests served, by method.", "method"),
		errors: reg.CounterVec("dice_rpc_server_errors_total",
			"RPC requests answered with an application error, by method.", "method"),
		draining: reg.Gauge("dice_rpc_server_draining",
			"1 while the server is draining for shutdown."),
	}
}

func (m *serverMetrics) noteRequest(method string, failed bool) {
	if m == nil {
		return
	}
	m.requests.With(method).Inc()
	if failed {
		m.errors.With(method).Inc()
	}
}

func (m *serverMetrics) setDraining(v bool) {
	if m == nil {
		return
	}
	if v {
		m.draining.Set(1)
	} else {
		m.draining.Set(0)
	}
}

// agentMetrics instruments the Agent's handlers. Nil-safe like the rest.
type agentMetrics struct {
	checkpointPages  *telemetry.Counter
	checkpointUnique *telemetry.Counter
	memoHits         *telemetry.CounterVec // kind (explore | replay | inject)
	shadowsOpen      *telemetry.Gauge
}

func newAgentMetrics(reg *telemetry.Registry) *agentMetrics {
	if reg == nil {
		return nil
	}
	return &agentMetrics{
		checkpointPages: reg.Counter("dice_agent_checkpoint_pages_total",
			"Checkpoint pages serialized (shared and unique)."),
		checkpointUnique: reg.Counter("dice_agent_checkpoint_unique_pages_total",
			"Checkpoint pages newly ingested (not shared with a prior snapshot)."),
		memoHits: reg.CounterVec("dice_agent_memo_hits_total",
			"Requests answered from an idempotency memo, by kind.", "kind"),
		shadowsOpen: reg.Gauge("dice_agent_shadows_open",
			"Shadow clones currently open."),
	}
}

func (m *agentMetrics) noteCheckpoint(pages, unique int) {
	if m == nil {
		return
	}
	m.checkpointPages.Add(uint64(pages))
	m.checkpointUnique.Add(uint64(unique))
}

func (m *agentMetrics) noteMemoHit(kind string) {
	if m == nil {
		return
	}
	m.memoHits.With(kind).Inc()
}

func (m *agentMetrics) noteShadowOpened() {
	if m == nil {
		return
	}
	m.shadowsOpen.Inc()
}

func (m *agentMetrics) noteShadowClosed() {
	if m == nil {
		return
	}
	m.shadowsOpen.Dec()
}

// replicaMetrics instruments the Replica's explore handler.
type replicaMetrics struct {
	explores *telemetry.Counter
	memoHits *telemetry.Counter
}

func newReplicaMetrics(reg *telemetry.Registry) *replicaMetrics {
	if reg == nil {
		return nil
	}
	return &replicaMetrics{
		explores: reg.Counter("dice_replica_explores_total",
			"Checkpoint explores executed (memo hits excluded)."),
		memoHits: reg.Counter("dice_replica_memo_hits_total",
			"Checkpoint explores answered from the shard memo."),
	}
}

func (m *replicaMetrics) noteExplore() {
	if m == nil {
		return
	}
	m.explores.Inc()
}

func (m *replicaMetrics) noteMemoHit() {
	if m == nil {
		return
	}
	m.memoHits.Inc()
}

// ChaosFaultCounter registers the chaos-injection counter family: assign
// it to FaultDialer.Faults and every injected fault increments
// dice_chaos_faults_total{kind}. A nil registry returns nil (counting
// disabled, as before).
func ChaosFaultCounter(reg *telemetry.Registry) *telemetry.CounterVec {
	if reg == nil {
		return nil
	}
	return reg.CounterVec("dice_chaos_faults_total",
		"Faults injected by FaultDialer connections, by kind.", "kind")
}
