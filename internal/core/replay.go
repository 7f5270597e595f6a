package core

import (
	"fmt"

	"dice/internal/bgp"
	"dice/internal/trace"
)

// Trace replay turns one-off federated exploration runs into a
// repeatable regression suite: a recorded history (internal/trace
// format — a full-table dump plus a timed update stream) is fed into
// the live fabric through a node←peer ingress session before rounds
// run, so exploration seeds from the replayed history and the round's
// finding set can be diffed against a committed golden snapshot
// (internal/regress). Both backends replay identically — the
// in-process FederatedExperiment directly, the distributed coordinator
// by fanning the trace to every agent's deterministic local fabric.

// ReplayTrace feeds a recorded trace into the live fabric as the
// node←peer input stream: dump records bulk-load through the peer's
// session (draining the network periodically, like the Fig. 2 table
// load), update records are injected at their recorded offsets with the
// virtual clock advanced between them, and the fabric is converged at
// the end. It returns the number of records injected.
func (f *Fabric) ReplayTrace(node, peer string, records []trace.Record) (int, error) {
	dump, updates := trace.Split(records)
	return f.replay(node, peer, dump, updates)
}

// replay is ReplayTrace over an already split trace; the Fig. 2 table
// load and update replay are its dump-only and updates-only callers.
func (f *Fabric) replay(node, peer string, dump, updates []trace.Record) (int, error) {
	sender := f.Routers[peer]
	if sender == nil {
		return 0, fmt.Errorf("replay: unknown ingress peer %q", peer)
	}
	sess := sender.Session(node)
	if sess == nil {
		return 0, fmt.Errorf("replay: no %s→%s session to replay through", peer, node)
	}
	if sess.State() != bgp.StateEstablished {
		return 0, fmt.Errorf("replay: %s→%s session not established", peer, node)
	}

	n := 0
	for _, rec := range dump {
		if err := sess.SendUpdate(trace.ToUpdate(rec)); err != nil {
			return n, fmt.Errorf("replay: dump record %d (%s): %w", n, rec.Prefix, err)
		}
		n++
		if n%1024 == 0 {
			f.Net.Run(0) // keep the delivery queue small during bulk load
		}
	}
	f.Net.Run(0)

	start := f.Net.Now()
	for _, rec := range updates {
		f.Net.RunUntil(start.Add(rec.At))
		if err := sess.SendUpdate(trace.ToUpdate(rec)); err != nil {
			return n, fmt.Errorf("replay: update record %d (%s %s): %w", n, rec.Kind, rec.Prefix, err)
		}
		n++
	}
	f.Net.Run(0) // converge the tail
	return n, nil
}

// Replay feeds a recorded trace into the experiment's live fabric (see
// Fabric.ReplayTrace). Call it before Round: the replayed history
// becomes the state rounds checkpoint from and the observed seeds
// exploration starts at.
func (fe *FederatedExperiment) Replay(node, peer string, records []trace.Record) (int, error) {
	return fe.Fabric.ReplayTrace(node, peer, records)
}
