package core

import (
	"fmt"
	"slices"
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

// line renders one finding's snapshot line: every wire-carried field but
// the Input map, whose entries have no order of their own.
func (f Finding) line() string {
	return fmt.Sprintf("  finding %s|%s|%s|%s|%d|%d|%s|validated=%t|spread=%v",
		f.Kind, f.Peer, f.Prefix, f.LeakRange, f.OriginAS, f.VictimAS, f.VictimPrefix, f.Validated, f.SpreadTo)
}

// compareFindings is the canonical order of findings a and b, given
// their snapshot lines: by line, ties broken by the witness input (fmt
// prints a map in key order), which is rendered only for a tie.
func compareFindings(a, b Finding, lineA, lineB string) int {
	if c := strings.Compare(lineA, lineB); c != 0 {
		return c
	}
	return strings.Compare(fmt.Sprint(a.Input), fmt.Sprint(b.Input))
}

// sortFindings puts findings in canonical order, rendering each one's
// line once.
func sortFindings(fs []Finding) {
	type lined struct {
		line string
		f    Finding
	}
	ls := make([]lined, len(fs))
	for i, f := range fs {
		ls[i] = lined{f.line(), f}
	}
	slices.SortFunc(ls, func(a, b lined) int { return compareFindings(a.f, b.f, a.line, b.line) })
	for i, l := range ls {
		fs[i] = l.f
	}
}

// SnapshotTarget renders one target's share of a round: its findings in
// the order given — canonical for every analyzed Result — each followed
// by its injected and minimal witnesses when set.
func SnapshotTarget(node, peer, scenario, skipped string, findings []Finding) []string {
	lines := []string{fmt.Sprintf("target %s<-%s %s", node, peer, scenario)}
	if skipped != "" {
		return append(lines, "  skipped: "+skipped)
	}
	for _, f := range findings {
		lines = append(lines, f.line())
		if f.Witness != nil {
			lines = append(lines, "    witness "+minimize.Render(f.Witness))
		}
		if f.MinimalWitness != nil {
			lines = append(lines, "    minimal "+minimize.Render(f.MinimalWitness))
		}
	}
	return lines
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
