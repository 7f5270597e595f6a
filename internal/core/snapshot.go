package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"dice/internal/minimize"
	"dice/internal/prop"
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

// line renders one finding's snapshot line (appendLine).
func (f Finding) line() string {
	return string(f.appendLine(nil))
}

// appendLine appends one finding's snapshot line to dst: every
// wire-carried field but the Input map, whose entries have no order of
// their own.
func (f *Finding) appendLine(dst []byte) []byte {
	dst = append(append(dst, "  finding "...), f.Kind...)
	dst = append(append(append(dst, '|'), f.Peer...), '|')
	dst = f.LeakRange.AppendTo(append(f.Prefix.AppendTo(dst), '|'))
	dst = strconv.AppendUint(append(dst, '|'), uint64(f.OriginAS), 10)
	dst = strconv.AppendUint(append(dst, '|'), uint64(f.VictimAS), 10)
	dst = f.VictimPrefix.AppendTo(append(dst, '|'))
	dst = strconv.AppendBool(append(dst, "|validated="...), f.Validated)
	return prop.AppendList(append(dst, "|spread="...), f.SpreadTo)
}

// lineBuf renders report lines into one presized buffer and cuts them
// out of the one string it becomes, so a round's ≈ 2 000 lines cost a
// few allocations instead of one or more each.
type lineBuf struct {
	buf  []byte
	ends []int
}

func newLineBuf(lines, bytes int) *lineBuf {
	return &lineBuf{buf: make([]byte, 0, bytes), ends: make([]int, 0, lines)}
}

// add closes the line just rendered onto l.buf; buf is the result.
func (l *lineBuf) add(buf []byte) {
	l.buf = buf
	l.ends = append(l.ends, len(buf))
}

// cut appends the closed lines to out. The lines share the buffer, which
// is not written again (lineBuf is done once cut), so it becomes the
// string without a copy, as strings.Builder's String does.
func (l *lineBuf) cut(out []string) []string {
	s, start := unsafe.String(unsafe.SliceData(l.buf), len(l.buf)), 0
	for _, e := range l.ends {
		out = append(out, s[start:e])
		start = e
	}
	return out
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
	lb := newLineBuf(len(fs), findingLineBytes*len(fs))
	for i := range fs {
		lb.add(fs[i].appendLine(lb.buf))
	}
	ls := make([]lined, len(fs))
	for i, line := range lb.cut(make([]string, 0, len(fs))) {
		ls[i] = lined{line, fs[i]}
	}
	slices.SortFunc(ls, func(a, b lined) int { return compareFindings(a.f, b.f, a.line, b.line) })
	for i, l := range ls {
		fs[i] = l.f
	}
}

// Rough rendered sizes, used only to presize a lineBuf.
const (
	findingLineBytes   = 128
	witnessLineBytes   = 64
	violationLineBytes = 192
)

// SnapshotTarget renders one target's share of a round: its findings in
// the order given — canonical for every analyzed Result — each followed
// by its injected and minimal witnesses when set.
func SnapshotTarget(node, peer, scenario, skipped string, findings []Finding) []string {
	lb := newLineBuf(1+3*len(findings), 64+(findingLineBytes+2*witnessLineBytes)*len(findings))
	lb.add(append(append(append(append(append(append(lb.buf, "target "...), node...), "<-"...), peer...), ' '), scenario...))
	if skipped != "" {
		lb.add(append(append(lb.buf, "  skipped: "...), skipped...))
		return lb.cut(make([]string, 0, 2))
	}
	for i := range findings {
		f := &findings[i]
		lb.add(f.appendLine(lb.buf))
		if f.Witness != nil {
			lb.add(minimize.AppendRender(append(lb.buf, "    witness "...), f.Witness))
		}
		if f.MinimalWitness != nil {
			lb.add(minimize.AppendRender(append(lb.buf, "    minimal "...), f.MinimalWitness))
		}
	}
	return lb.cut(make([]string, 0, len(lb.ends)))
}

// SnapshotRound renders a round canonically: the format header, the
// targets' SnapshotTarget blocks in resolution order, then the
// cross-node section — sorted violations and the witness-traffic
// summary. Both backends' result types render through here, so one
// golden file checks either.
func SnapshotRound(targets [][]string, violations []FederatedViolation, injected, skipped, steps int) []string {
	n := 3 + len(violations)
	for _, block := range targets {
		n += len(block)
	}
	lines := append(make([]string, 0, n), SnapshotHeader)
	for _, block := range targets {
		lines = append(lines, block...)
	}
	lines = append(lines, "violations")
	lb := newLineBuf(len(violations)+1, violationLineBytes*len(violations)+96)
	for i := range violations {
		lb.add(violations[i].AppendTo(append(lb.buf, "  "...)))
	}
	summary := strconv.AppendInt(append(lb.buf, "summary witnesses_injected="...), int64(injected), 10)
	summary = strconv.AppendInt(append(summary, " witnesses_skipped="...), int64(skipped), 10)
	lb.add(strconv.AppendInt(append(summary, " propagation_steps="...), int64(steps), 10))
	lines = lb.cut(lines)
	slices.Sort(lines[len(lines)-1-len(violations) : len(lines)-1])
	return lines
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
