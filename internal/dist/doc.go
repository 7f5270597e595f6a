// Package dist is the distributed node-agent backend: federated
// exploration rounds (see internal/core, federated.go) cut along the
// fleet scheduler's per-node shard seam and run over a real RPC
// boundary, so the paper's §2.4 system model — online testing across
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
//   - A Coordinator drives multi-round federated exploration by
//     orchestrating agents over the wire protocol: it resolves the
//     round's explore targets (core.ResolveTargets — the same resolution
//     the in-process backend uses), fans Explore calls out to the
//     owning agents, dedups and caps the returned concrete
//     UPDATE/WITHDRAW witnesses, relays witness propagation between
//     domains message by message (a latency-ordered event queue
//     replaces netsim as the inter-domain scheduler), and aggregates
//     witness-attributed cross-node oracle verdicts into the same
//     core.FederatedResult the in-process backend produces. A parity
//     test (dist_test.go) holds the two backends to the same findings.
//
// Wire protocol: one binary format (wire.go, wirev2.go) and one call
// discipline — pipelined requests, batched relay deliveries, shadow sets
// shared across disjoint witnesses. Every connection opens with a hello
// carrying ProtoVersion; agent, replica and coordinator each refuse a
// peer whose version differs, so a fleet is one build. Changing a
// message layout means bumping ProtoVersion, nothing else.
//
// Transports: the protocol runs over any io.ReadWriteCloser. Loopback (net.Pipe against an in-process Agent)
// gives deterministic single-process tests; TCP gives real process
// separation (cmd/dicenode is the agent binary, cmd/dice -distributed
// the coordinator).
package dist
