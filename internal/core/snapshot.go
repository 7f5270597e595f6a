package core

import (
	"fmt"
	"sort"
	"strings"

	"dice/internal/minimize"
)

// Finding-set snapshots are the regression harness's unit of comparison
// (internal/regress): a federated round — in-process or distributed —
// renders to a canonical, deterministic list of lines, the harness
// diffs that against a committed golden file, and a replayed trace that
// produces a different finding set fails loudly. Both backends render
// through the helpers here so one golden file checks either backend.

// SnapshotHeader identifies the snapshot format; bump it when the line
// layout changes so stale golden files fail with a format mismatch
// instead of a confusing content diff.
const SnapshotHeader = "# dice finding snapshot v1"

// snapshotFinding renders one finding canonically: every wire-carried,
// schedule-independent field (Seq depends on worker scheduling and the
// Input map has no stable order — both excluded, as in the distributed
// parity contract), plus the injected and minimal witnesses when set.
func snapshotFinding(f Finding) []string {
	lines := []string{fmt.Sprintf("  finding %s|%s|%s|%s|%d|%d|%s|validated=%t|spread=%v",
		f.Kind, f.Peer, f.Prefix, f.LeakRange, f.OriginAS, f.VictimAS, f.VictimPrefix, f.Validated, f.SpreadTo)}
	if f.Witness != nil {
		lines = append(lines, "    witness "+minimize.Render(f.Witness))
	}
	if f.MinimalWitness != nil {
		lines = append(lines, "    minimal "+minimize.Render(f.MinimalWitness))
	}
	return lines
}

// SnapshotTarget renders one target's share of a round. Findings sort
// by their rendered line (their own order is exploration order, which
// worker scheduling may permute); each finding's witness sub-lines stay
// attached to it.
func SnapshotTarget(node, peer, scenario, skipped string, findings []Finding) []string {
	lines := []string{fmt.Sprintf("target %s<-%s %s", node, peer, scenario)}
	if skipped != "" {
		return append(lines, "  skipped: "+skipped)
	}
	blocks := make([][]string, 0, len(findings))
	keys := make([]string, 0, len(findings))
	for _, f := range findings {
		b := snapshotFinding(f)
		blocks = append(blocks, b)
		// Sort by the whole block: two findings can render the same
		// finding line (Seq/Input are excluded) yet differ in their
		// witness sub-lines, and exploration order must not leak into
		// the tie-break.
		keys = append(keys, strings.Join(b, "\n"))
	}
	sort.Sort(&blockSort{keys: keys, blocks: blocks})
	for _, b := range blocks {
		lines = append(lines, b...)
	}
	return lines
}

type blockSort struct {
	keys   []string
	blocks [][]string
}

func (s *blockSort) Len() int           { return len(s.keys) }
func (s *blockSort) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *blockSort) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.blocks[i], s.blocks[j] = s.blocks[j], s.blocks[i]
}

// SnapshotRound renders a round canonically: the format header, the
// targets' SnapshotTarget blocks in resolution order, then the
// cross-node section — sorted violations and the witness-traffic
// summary. Both backends' result types render through here, so one
// golden file checks either.
func SnapshotRound(targets [][]string, violations []FederatedViolation, injected, skipped, steps int) []string {
	lines := []string{SnapshotHeader}
	for _, block := range targets {
		lines = append(lines, block...)
	}
	lines = append(lines, "violations")
	vs := make([]string, 0, len(violations))
	for _, v := range violations {
		vs = append(vs, "  "+v.String())
	}
	sort.Strings(vs)
	lines = append(lines, vs...)
	return append(lines, fmt.Sprintf("summary witnesses_injected=%d witnesses_skipped=%d propagation_steps=%d",
		injected, skipped, steps))
}

// Snapshot renders the round canonically for golden-file comparison.
func (res *FederatedResult) Snapshot() []string {
	blocks := make([][]string, len(res.Targets))
	for i, tr := range res.Targets {
		skipped := ""
		if tr.Err != nil {
			skipped = tr.Err.Error()
		}
		var findings []Finding
		if tr.Result != nil {
			findings = tr.Result.Findings
		}
		blocks[i] = SnapshotTarget(tr.Node, tr.Peer, tr.Scenario, skipped, findings)
	}
	return SnapshotRound(blocks, res.Violations, res.WitnessesInjected, res.WitnessesSkipped, res.PropagationSteps)
}
