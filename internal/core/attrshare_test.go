package core_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/topo"
)

// TestSharedAttrSetsStayImmutable: a shadow set decodes each distinct
// attribute set once and hands the same slices to every route built from
// it, so no code path may write into one. A 64-AS round at Workers 2 (two
// sets at once) and the federated example's round run with import
// filters that add a community and that set MED; when each set closes,
// every attribute set in its table must still re-decode from its key to
// an equal value, and afterwards the live routers' RIBs must be what they
// were.
func TestSharedAttrSetsStayImmutable(t *testing.T) {
	generated, _, err := topo.Generate(topo.Spec{Seed: 64, Nodes: 64, ExploreTargets: 12, PolicyClauses: 1})
	if err != nil {
		t.Fatal(err)
	}
	example, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	// The generated import filters already add communities; provider
	// routes also get a MED. In the example, transitA tags what the stub
	// sends and sets a MED on it, and the two nodes behind it set their
	// own MED on import.
	editConfigs(generated, func(_, line string) []string {
		if strings.HasPrefix(line, "filter in_provider {") {
			return []string{line, "    set med 77;"}
		}
		return []string{line}
	})
	editConfigs(example, func(node, line string) []string {
		switch {
		case line == "filter stub_in {":
			return []string{line, "    add community (64910, 1);", "    set med 3;"}
		case node == "transitB" && strings.HasPrefix(line, "peer transitA "):
			return []string{"filter med_in { set med 5; accept; }", strings.Replace(line, "; }", "; import filter med_in; }", 1)}
		case node == "content" && strings.HasPrefix(line, "peer transitB "):
			return []string{"filter med_in { set med 9; accept; }", strings.Replace(line, "; }", "; import filter med_in; }", 1)}
		}
		return []string{line}
	})
	for _, tp := range []*core.Topology{generated, example} {
		t.Run(tp.Name, func(t *testing.T) {
			opts := core.FederatedOptions{Engine: concolic.Options{MaxRuns: 1000}, Workers: 2, MaxWitnesses: 1 << 20}
			fe, err := core.NewFederatedExperiment(tp, opts)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.NewDriver(tp, opts)
			if err != nil {
				t.Fatal(err)
			}
			before := ribDumps(fe)
			f := &checkedFleet{FederatedExperiment: fe, t: t}
			res, err := d.Round(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 || f.sets == 0 {
				t.Fatalf("the round confirmed %d violations over %d attribute sets: nothing was shared", len(res.Violations), f.sets)
			}
			if f.withMED == 0 || f.withAdded == 0 {
				t.Fatalf("%d sets carry a MED and %d an import-added community: the modifying filters never ran", f.withMED, f.withAdded)
			}
			if after := ribDumps(fe); !reflect.DeepEqual(after, before) {
				t.Error("the round changed a live router's RIB")
			}
		})
	}
}

// editConfigs rewrites every config line of t's nodes through edit.
func editConfigs(t *core.Topology, edit func(node, line string) []string) {
	for i := range t.Nodes {
		n := &t.Nodes[i]
		var out []string
		for _, line := range n.Config {
			out = append(out, edit(n.Name, line)...)
		}
		n.Config = out
	}
}

// ribDumps renders every live router's best routes, attributes included.
func ribDumps(fe *core.FederatedExperiment) map[string]string {
	out := map[string]string{}
	for name, r := range fe.Fabric.Routers {
		var b strings.Builder
		for _, rt := range r.RIB().Dump() {
			fmt.Fprintf(&b, "%+v\n", *rt)
		}
		out[name] = b.String()
	}
	return out
}

// checkedFleet is the in-process fleet whose shadow sets check their
// attribute table as they close.
type checkedFleet struct {
	*core.FederatedExperiment
	t *testing.T

	mu                       sync.Mutex
	sets, withMED, withAdded int
}

func (f *checkedFleet) OpenShadows() core.Shadows {
	return checkedShadows{f.FederatedExperiment.OpenShadows().(*core.FabricShadows), f}
}

type checkedShadows struct {
	*core.FabricShadows
	f *checkedFleet
}

func (s checkedShadows) Close() {
	var sets, withMED, withAdded int
	s.AttrTable().Each(func(block []byte, a bgp.Attrs) {
		sets++
		if again := decodeBlock(s.f.t, block); !reflect.DeepEqual(again, a) {
			s.f.t.Errorf("a shared attribute set was written:\nnow    %+v\ndecode %+v", a, again)
		}
		if a.HasMED {
			withMED++
		}
		if a.HasCommunity(bgp.MakeCommunity(64910, 1)) || a.HasCommunity(bgp.MakeCommunity(topo.RelationshipAS, uint16(topo.RelProvider))) {
			withAdded++
		}
	})
	s.f.mu.Lock()
	s.f.sets += sets
	s.f.withMED += withMED
	s.f.withAdded += withAdded
	s.f.mu.Unlock()
	s.FabricShadows.Close()
}

// decodeBlock decodes an attribute block as the attributes of an UPDATE
// that announces nothing.
func decodeBlock(t *testing.T, block []byte) bgp.Attrs {
	wire := make([]byte, bgp.HeaderLen, bgp.HeaderLen+4+len(block))
	for i := 0; i < 16; i++ {
		wire[i] = 0xff
	}
	wire[18] = bgp.MsgUpdate
	wire = binary.BigEndian.AppendUint16(append(wire, 0, 0), uint16(len(block)))
	wire = append(wire, block...)
	binary.BigEndian.PutUint16(wire[16:], uint16(len(wire)))
	m, err := bgp.Decode(wire)
	if err != nil {
		t.Fatalf("a stored block no longer decodes: %v", err)
	}
	return m.(*bgp.Update).Attrs
}
