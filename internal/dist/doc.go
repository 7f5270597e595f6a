// Package dist is the distributed node-agent backend: the federated
// round's Fleet seam (internal/core, fleet.go) implemented over a real
// RPC boundary, so the paper's §2.4 system model — online testing across
// *independently administered* nodes — exists in the process structure,
// not just in the data model.
//
// The split:
//
//   - An Agent administers ONE node of a topology. It instantiates the
//     topology locally (netsim convergence is deterministic, so every
//     agent's picture of the converged fabric is identical) but owns and
//     serves only its own node: its checkpoint snapshots, its concolic
//     exploration shard with per-node cross-round ExploreState, its
//     shadow clones for witness propagation, and the narrow per-node
//     oracle queries. Nothing else about the node — its RIB, its policy
//     configuration object, its engine — crosses the wire.
//
//   - A Coordinator reaches the agents over the wire protocol and is a
//     core.Fleet: Explore fans phase 1 out to the owning agents (or a
//     replica pool), OpenShadows clones every node, and the shadow set
//     it returns is a core.Shadows — Propagate hands a witness group to
//     core.Relay, the wave scheduler the in-process backend runs too, and
//     executes each of its virtual time steps as one inject_witness per
//     agent addressed; Query is the one query_oracle a forward trace may
//     still need. The round itself —
//     targets, witness dedup, cap and grouping, the witness lifecycle,
//     property verdicts — is core.Driver's, the code that also drives
//     core.FederatedExperiment; nothing of it is written here. What is:
//     connections, deadlines, reconnect and degraded fallback, replay,
//     telemetry. The parity table (parity_test.go) holds the two
//     backends to the same snapshot, fleet shape by fleet shape.
//
// Wire protocol: one binary format — wire.go holds framing, envelope,
// the ten-row method table and every payload's layout, each stated once
// over internal/codec's pass, and encodes core's and netaddr's own types
// directly — and one call discipline: pipelined
// requests, each relay step's deliveries batched into one inject_witness
// per agent, all in flight at once. Every connection opens with a hello
// carrying ProtoVersion; agent, replica and coordinator each refuse a
// peer whose version differs, so a fleet is one build. Changing a message
// layout means bumping ProtoVersion, nothing else.
//
// Transports: the protocol runs over any io.ReadWriteCloser. Loopback (net.Pipe against an in-process Agent)
// gives deterministic single-process tests; TCP gives real process
// separation (cmd/dicenode is the agent binary, cmd/dice -distributed
// the coordinator).
package dist
