// Package concolic implements the concolic execution engine DiCE uses to
// systematically exercise a node's code paths (the paper's Oasis
// replacement).
//
// Instrumented handlers compute over Value — a pair of a concrete value
// and an optional symbolic expression — and report branches through a
// RunContext, which records the path condition. The Engine then negates
// recorded predicates one at a time (Figure 1 in the paper), solves for
// fresh concrete inputs, and re-executes from the same checkpointed state
// until no unexplored feasible branch remains or the budget is exhausted.
//
// The machinery is split into four pieces:
//
//   - engine.go — the public surface: declare symbolic inputs (Var),
//     run one input (RunOnce), or explore exhaustively (Explore).
//   - frontier.go — what to try next: the strategy-ordered queue of
//     pending predicate negations, with fingerprint-keyed dedup of paths
//     and negation queries (collision-verified, so a fingerprint clash
//     can cost a duplicate solve but never lose a path).
//   - scheduler.go — who tries it: a worker pool draining one frontier
//     shard per explored node. A single-node Explore is a fleet of one;
//     ExploreFleet (fleet.go) runs one shard per federation node over the
//     same shared pool, so a federated round costs max(node) wall-clock
//     instead of sum(node).
//   - state.go — cross-round memory: ExploreState makes repeated online
//     rounds incremental (known paths and negations are skipped).
//     StateMap (fleet.go) shards that memory per federation node ID.
package concolic
