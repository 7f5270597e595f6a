package main

import (
	"runtime"
	"sort"
	"time"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/filter"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/rib"
	"dice/internal/solver"
	"dice/internal/sym"
)

// perOp times fn — which performs n operations — reps times and returns
// the median cost of one operation in nanoseconds.
func perOp(reps, n int, fn func()) float64 {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = time.Since(t)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	if n < 1 {
		n = 1
	}
	return float64(ds[reps/2]) / float64(n)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// layerProbes measures each package's public operations on this
// workload's own data: the primary target's live router, its policy and
// seed, and the path constraints one cold round recorded.
func layerProbes(r *run, p roundPieces, cold roundInfo, parsePolicy func() error) {
	tg := p.targets[0]
	live := p.routers[tg.Node]
	seed := live.LastAnnounced(tg.Peer)

	// sym and solver, over the round's recorded paths.
	var paths []concolic.PathResult
	for _, rep := range cold.reports {
		paths = append(paths, rep.Paths...)
	}
	var constraints int
	for _, pr := range paths {
		constraints += len(pr.Path) + len(pr.Assumes)
	}
	r.set("sym.fingerprint_ns", perOp(9, constraints, func() {
		for _, pr := range paths {
			sink = sym.FingerprintPath(pr.Constraints())
		}
	}))
	r.set("sym.eval_ns", perOp(9, constraints, func() {
		for _, pr := range paths {
			for _, c := range pr.Path {
				sink = sym.Eval(c, pr.Env)
			}
			for _, c := range pr.Assumes {
				sink = sym.Eval(c, pr.Env)
			}
		}
	}))
	const internN = 4096
	v := sym.NewVar(0, "probe", 32)
	r.set("sym.intern_ns", perOp(9, 2*internN, func() {
		for i := 0; i < internN; i++ {
			sink = sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, v, sym.NewConst(uint64(i)<<8, 32)), sym.NewConst(uint64(i), 32))
		}
	}))
	r.set("sym.interned_nodes", float64(sym.InternedNodes()))

	// Replay every negation query the round's paths imply:
	// Assumes ∧ Path[:i] ∧ ¬Path[i].
	var queries [][]sym.Expr
	for _, pr := range paths {
		for i := range pr.Path {
			q := make([]sym.Expr, 0, len(pr.Assumes)+i+1)
			q = append(append(q, pr.Assumes...), pr.Path[:i]...)
			queries = append(queries, append(q, sym.NewNot(pr.Path[i])))
		}
	}
	if len(queries) > 2048 {
		queries = queries[:2048]
	}
	r.set("solver.query_us", perOp(5, len(queries), func() {
		s := solver.New(solver.Options{})
		for _, q := range queries {
			sink, _ = s.Solve(q)
		}
	})/1e3)
	r.set("solver.analyze_us", perOp(5, len(paths), func() {
		for _, pr := range paths {
			sink, _ = solver.Analyze(pr.Constraints())
		}
	})/1e3)

	// filter: the target peering's import policy, run concretely on the seed.
	policy := live.Config().FindPeer(tg.Peer).Import
	if policy == nil {
		policy = filter.AcceptAll
	}
	subj := filter.SubjectFromRoute(seed.NLRI[0], &seed.Attrs)
	r.set("filter.run_ns", perOp(9, 1000, func() {
		for i := 0; i < 1000; i++ {
			sink = filter.Run(policy, subj, filter.ConcreteBrancher{})
		}
	}))
	r.set("filter.parse_us", perOp(9, 1, func() {
		if err := parsePolicy(); err != nil {
			panic(err)
		}
	})/1e3)

	// rib: rebuild the live table from its own routes, then read it back.
	routes := live.RIB().Dump()
	var table *rib.Table
	r.set("rib.insert_ns", perOp(5, len(routes), func() {
		table = rib.New()
		for _, rt := range routes {
			cp := *rt
			table.Insert(&cp)
		}
	}))
	r.set("rib.lookup_ns", perOp(5, len(routes), func() {
		for _, rt := range routes {
			sink = table.Best(rt.Prefix)
		}
	}))
	r.set("rib.walk_ms", perOp(5, 1, func() {
		table.WalkAll(func(netaddr.Prefix, []*rib.Route) bool { return true })
	})/1e6)
	r.set("rib.overlay_create_ns", perOp(9, 1000, func() {
		for i := 0; i < 1000; i++ {
			sink = rib.NewOverlay(table)
		}
	}))
	some := routes
	if len(some) > 256 {
		some = some[:256]
	}
	r.set("rib.overlay_insert_ns", perOp(9, len(some), func() {
		o := rib.NewOverlay(table)
		for _, rt := range some {
			cp := *rt
			cp.PeerRouterID++ // a new candidate, so the overlay takes ownership of the prefix
			o.Insert(&cp)
		}
	}))

	// router: the checkpoint clone, the COW exploration clone, one UPDATE.
	ckpt := live.Clone(netsim.NewCaptureSink())
	r.set("router.clone_ms", perOp(5, 1, func() { ckpt = live.Clone(netsim.NewCaptureSink()) })/1e6)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ckpt = live.Clone(netsim.NewCaptureSink())
	runtime.ReadMemStats(&after)
	r.set("router.clone_allocs", float64(after.Mallocs-before.Mallocs))
	r.set("router.clone_cow_us", perOp(9, 100, func() {
		for i := 0; i < 100; i++ {
			sink = ckpt.CloneCOW(netsim.NewCaptureSink())
		}
	})/1e3)
	cow := ckpt.CloneCOW(netsim.NewCaptureSink())
	r.set("router.handle_update_us", perOp(9, 100, func() {
		for i := 0; i < 100; i++ {
			sink = cow.HandleUpdateConcrete(tg.Peer, seed) // import policy, then replace the route in place
		}
	})/1e3)

	// checkpoint: page accounting of the live node, and the paper's E1
	// shares from one memory-measured round — with live updates beside
	// it where the workload has them, or the checkpoint could not diverge
	// from the live state at all.
	store := checkpoint.NewStore(0)
	r.set("checkpoint.take_ms", perOp(3, 1, func() {
		store.TakeChunks("probe", live.EncodeStateChunks()).Release()
	})/1e6)
	var lr *liveRun
	if p.driver != nil {
		lr = p.driver.start(false)
	}
	res, err := core.New(live, core.Options{Engine: p.engine, MeasureMemory: true, CloneLock: p.lock}).ExploreScenario(tg.Scenario, tg.Peer)
	if lr != nil {
		lr.halt()
		r.attempted += lr.sent
	}
	if err != nil {
		r.op(err)
	} else {
		r.set("checkpoint.pages", float64(res.Memory.CheckpointPages))
		r.set("checkpoint.unique_pct", 100*res.Memory.CheckpointUniqueFraction)
		r.set("checkpoint.clone_overhead_pct", 100*res.Memory.CloneOverheadMean)
	}

	// bgp: the seed UPDATE through the wire codec.
	wire, err := bgp.Encode(seed)
	if err != nil {
		r.op(err)
		return
	}
	r.set("bgp.encode_ns", perOp(9, 1000, func() {
		for i := 0; i < 1000; i++ {
			sink, _ = bgp.Encode(seed)
		}
	}))
	r.set("bgp.decode_ns", perOp(9, 1000, func() {
		for i := 0; i < 1000; i++ {
			sink, _ = bgp.Decode(wire)
		}
	}))
}
