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
//     serves only its own node: its concolic exploration shard, run on
//     checkpoint clones with per-node cross-round ExploreState, its
//     shadow clones for witness propagation, and the narrow per-node
//     oracle queries. Nothing else about the node — its RIB, its policy
//     configuration object, its engine — crosses the wire.
//
//   - A Coordinator reaches the agents over the wire protocol and is a
//     core.Fleet: Explore fans phase 1 out to the owning agents,
//     OpenShadows mints a shadow id, and the shadow set
//     it returns is a core.Shadows — Propagate hands a witness group to
//     core.Relay, the wave scheduler the in-process backend runs too, and
//     executes each of its virtual time steps as one inject_witness per
//     agent addressed; Query is the one query_oracle a forward trace may
//     still need; Close closes the agents the set called. The round
//     itself — targets, witness dedup, cap and grouping, the witness
//     lifecycle, property verdicts — is core.Driver's, the code that also drives
//     core.FederatedExperiment; nothing of it is written here. What is:
//     connections, deadlines, reconnect and degraded fallback, replay,
//     telemetry. The parity table (parity_test.go) holds the two
//     backends to the same snapshot, fleet shape by fleet shape.
//
// Wire protocol: one binary format — wire.go holds framing, envelope,
// the six-row method table and every payload's layout, each stated once
// over internal/codec's pass, and encodes core's and netaddr's own types
// directly — and one call discipline: pipelined
// requests, each relay step's deliveries batched into one inject_witness
// per agent, all in flight at once. Every connection opens with a hello
// carrying ProtoVersion (14); agent and coordinator each refuse a peer
// whose version differs, so a fleet is one build. Changing a message
// layout means bumping ProtoVersion, nothing else.
//
// Exactly once: delivery is at least once — a call that timed out or
// lost its connection is sent again once its connection is recovered
// (Coordinator.wait) — and every effect happens once. One rule in
// rpcServer (server.go), the engine the Agent embeds, keeps that
// promise: requests execute one at a time; a hello with a new session
// nonce clears the memo; a keyed
// request (wire.go) names a slot and a key, and one whose key is its
// slot's latest answered key gets that answer again instead of running.
// The coordinator mints every key, and every shadow id, from one
// sequence per session. A shadow opens on its set's first call to an
// agent, marked Open: a call on an id the agent lacks clones the node if
// marked, else answers the missing shadow (core.ErrShadowLost: a
// replaced agent; the driver replays the witness). A retried opening
// call clones once — the memo or the open id answers it on the same
// process, and a replacement never saw the first — but a late duplicate
// after the set's shadow_close reopens the id until the session ends.
// Each method's row (TestExactlyOnceTable holds the method table to it):
//
//	method          slot              key
//	hello           none              read-only; a new session nonce clears the memo; answers Resumed
//	explore         peer, scenario    the call's key
//	inject_witness  shadow id         the call's key
//	shadow_close    none              idempotent: closes the shadow id if it exists, retiring its slot
//	query_oracle    none              idempotent: Open opens the shadow id unless it exists; the rest is read-only
//	replay          its key           the call's key
//
// Cold agents: a hello's answer says whether the server already held
// the session (HelloResult.Resumed). One that did not — a restarted
// agent process, a degraded in-process replacement — explores cold, so
// under ReuseState the coordinator drops, from each target's first
// answer after such a hello, the findings the session already returned
// (Coordinator.dropKnown): its warm rounds read as a healthy fleet's.
//
// Buffer ownership: an RPC allocates only what its caller keeps.
//
//   - A frame buffer comes from one pool (wire.go) and has one owner at a
//     time. An outgoing frame's is the sender's until Write returns —
//     Write retains nothing, by io.Writer's contract — and goes back to
//     the pool then. A response the coordinator reads is its read loop's
//     until the answer is decoded into the caller's result, and goes back
//     then; the pool keeps no buffer over 16 KiB.
//   - A decoded message never aliases a pooled buffer. A response's BGP
//     messages are copied into one slab per frame and its node names are
//     interned, so a result outlives its frame. The agent reads each
//     request into a fresh body that nothing reuses, and the decoded
//     params' messages alias it: a shadow may keep a delivery's bytes for
//     as long as it lives. The params value itself is reused: each
//     connection decodes every inject_witness into one (reqDecoder), and
//     a shadow set decodes each step's answers into the last step's, so
//     neither may be kept past the call.
//   - Memo answers are never pooled or reused: rpcServer.execute keeps
//     the handler's result itself, and a retry re-encodes it, so the
//     answer must stay what it was when first sent. Only the frame it is
//     encoded into is pooled.
//
// Transports: the protocol runs over any io.ReadWriteCloser. Loopback (net.Pipe against an in-process Agent)
// gives deterministic single-process tests; TCP gives real process
// separation (cmd/dicenode is the agent binary, cmd/dice -distributed
// the coordinator).
package dist
