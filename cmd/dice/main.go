// Command dice runs DiCE online-testing rounds against the paper's
// Figure 2 topology: it brings up Customer/Provider/Internet, loads a
// routing table into the DiCE-enabled provider, explores the provider's
// behavior under synthesized customer messages, and reports any faults
// the scenario oracles find (route leaks / prefix hijacks for "update",
// FSM outcomes for "open", reachability blackholes for "withdraw").
//
// Usage:
//
//	dice -filter broken -table 20000 -runs 2000
//	dice -filter correct                 # expect no findings
//	dice -scenario update,open,withdraw  # explore several surfaces
//	dice -rounds 3                       # online mode: warm rounds skip known paths
//	dice -list-scenarios                 # show the scenario registry
//	dice -filter-file my_filter.conf     # custom customer_in filter
//	dice -trace trace.mrtl               # load a tracegen file instead
//
// Federated mode explores a multi-AS topology loaded from a JSON file
// (per-node concolic rounds, cross-node witness propagation, cross-node
// oracles — see examples/routeleak/README.md for the file format):
//
//	dice -scenario routeleak -topology examples/routeleak/topo.json
//	dice -topology topo.json -rounds 3   # warm per-node state across rounds
//
// Cross-node oracles can be declared in the property DSL instead of
// (or on top of) the built-in Go oracles — .prop files load from the
// topology's "properties" section or the -properties flag, and a
// declared property replaces the builtin of the same kind (see
// examples/properties/README.md and ARCHITECTURE.md §9):
//
//	dice -topology topo.json -properties leak.prop,stale.prop
//
// Distributed mode runs the same federated rounds against node agents
// in separate processes (cmd/dicenode), one per administrative domain,
// over the dist wire protocol (see examples/distributed/README.md):
//
//	dice -topology topo.json -distributed 127.0.0.1:7411,127.0.0.1:7412,127.0.0.1:7413
//	dice -topology topo.json -distributed ... -rpc-timeout 10s -dial-timeout 2s
//
// Distributed rounds are fault tolerant: every RPC is bounded by
// -rpc-timeout, broken connections are re-dialed with capped backoff,
// and a node whose agent stays unreachable degrades to an in-process
// replacement (reported after the run) without changing the findings.
//
// AS-relationship topologies (customer/provider/peer tiers with
// Gao-Rexford export policies, 8..10000 nodes, deterministic by seed)
// are generated with -asgen (see examples/asgen/README.md):
//
//	dice -asgen 200 -asgen-seed 7 -runs 50       # generate and explore
//	dice -asgen 1000 -asgen-out topo.json        # write for dicenode fleets
//
// The regression harness replays a recorded trace through the topology,
// minimizes every violating witness, and diffs the round's finding set
// against a committed golden snapshot (non-zero exit on mismatch — see
// examples/replay/README.md):
//
//	dice -topology topo.json -replay trace.mrtl -minimize -golden findings.golden
//	dice -topology topo.json -minimize -golden findings.golden -update-golden
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/dist"
	"dice/internal/filter"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/regress"
	"dice/internal/telemetry"
	"dice/internal/topo"
	"dice/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dice: ")

	var (
		filterKind    = flag.String("filter", "broken", "customer filter: broken|correct|missing")
		filterFile    = flag.String("filter-file", "", "file with a custom 'filter customer_in { ... }'")
		traceFile     = flag.String("trace", "", "MRT-lite trace to load (default: synthetic)")
		tableSize     = flag.Int("table", 20000, "synthetic table size when no -trace given")
		runs          = flag.Int("runs", 2000, "concolic run budget")
		workers       = flag.Int("workers", 1, "parallel exploration workers; also the witness groups checked at once")
		scenarioFlag  = flag.String("scenario", "update", "comma-separated scenarios to explore (see -list-scenarios), or 'all'")
		rounds        = flag.Int("rounds", 1, "exploration rounds per scenario; >1 reuses cross-round state (online mode)")
		anycastStr    = flag.String("anycast", "", "comma-free anycast prefix to suppress as FP (repeat not supported; use config for more)")
		verbose       = flag.Bool("v", false, "print every explored path")
		audit         = flag.Bool("audit", false, "audit the filter for dead clauses instead of exploring the router")
		listScenarios = flag.Bool("list-scenarios", false, "list registered scenarios and exit")
		topologyFile  = flag.String("topology", "", "federated mode: JSON multi-AS topology file to explore instead of the Fig. 2 testbed")
		propSteps     = flag.Int("propagation-steps", 0, "federated mode: max shadow propagation steps per witness (0 = 4096)")
		propsFlag     = flag.String("properties", "", "federated mode: comma-separated .prop files with declarative cross-node properties (merged over the built-in oracles by kind)")
		distributed   = flag.String("distributed", "", "distributed mode: comma-separated dicenode agent addresses (requires -topology; one agent per node)")
		asgenNodes    = flag.Int("asgen", 0, "generate an AS-relationship topology with this many nodes (customer/provider/peer tiers, Gao-Rexford export policies) and explore it as the federated topology")
		asgenSeed     = flag.Int64("asgen-seed", 1, "asgen: generator seed (the same seed always yields the identical topology)")
		asgenClauses  = flag.Int("asgen-clauses", 0, "asgen: extra policy clauses per customer-import filter (deepens the concolic search space)")
		asgenOut      = flag.String("asgen-out", "", "asgen: write the generated topology JSON here and exit (feed it to -topology and dicenode)")
		rpcTimeout    = flag.Duration("rpc-timeout", 30*time.Second, "distributed mode: per-RPC deadline (0 = none); a timed-out call retries and may trigger reconnection")
		dialTimeout   = flag.Duration("dial-timeout", 5*time.Second, "distributed mode: how long to retry dialing each agent address")
		replayFile    = flag.String("replay", "", "federated mode: replay this recorded trace into the fabric before rounds run (see -replay-ingress)")
		replayIngress = flag.String("replay-ingress", "", "replay ingress as 'node<-peer' (default: the topology's first explore target)")
		minimizeFlag  = flag.Bool("minimize", false, "federated mode: delta-debug every violating witness to a minimal still-failing announcement")
		minimizeBudg  = flag.Int("minimize-budget", 0, "candidate re-injections per witness under -minimize (0 = 256)")
		goldenFile    = flag.String("golden", "", "federated mode: diff the last round's finding snapshot against this golden file; exit non-zero on mismatch")
		updateGolden  = flag.Bool("update-golden", false, "rewrite -golden from the last round instead of comparing")
		metricsAddr   = flag.String("metrics-addr", "", "federated/distributed mode: TCP address for the telemetry endpoint (/metrics, /healthz, /debug/pprof/); empty disables it")
		traceOut      = flag.String("trace-out", "", "federated/distributed mode: write a Chrome trace_event JSON of the run's rounds here (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	if *listScenarios {
		for _, name := range core.ScenarioNames() {
			sc, _ := core.LookupScenario(name)
			fmt.Printf("  %-10s %s\n", name, sc.Description())
		}
		return
	}

	scenarios, err := resolveScenarios(*scenarioFlag)
	if err != nil {
		log.Fatal(err)
	}

	if *rounds < 1 {
		log.Fatalf("-rounds %d: need at least one round", *rounds)
	}
	if *distributed != "" && *topologyFile == "" {
		log.Fatal("-distributed requires -topology (the coordinator resolves targets and links from the topology file)")
	}
	if *asgenNodes > 0 && *topologyFile != "" {
		log.Fatal("-asgen and -topology are exclusive (asgen generates the topology)")
	}
	if (*asgenOut != "" || *asgenClauses != 0) && *asgenNodes == 0 {
		log.Fatal("-asgen-out and -asgen-clauses require -asgen (the generator they parameterize)")
	}
	var genTopo *core.Topology
	if *asgenNodes > 0 {
		t, layout, err := topo.Generate(topo.Spec{
			Seed:          *asgenSeed,
			Nodes:         *asgenNodes,
			PolicyClauses: *asgenClauses,
		})
		if err != nil {
			log.Fatal(err)
		}
		if *asgenOut != "" {
			data, err := topo.EncodeJSON(t)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*asgenOut, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s: topology %q, %d nodes (%d core), %d edges, %d explore targets\n",
				*asgenOut, t.Name, len(t.Nodes), len(layout.Core), len(t.Edges), len(t.Explore))
			return
		}
		genTopo = t
	}
	if *topologyFile == "" && genTopo == nil {
		for name, set := range map[string]bool{
			"-properties":      *propsFlag != "",
			"-replay":          *replayFile != "",
			"-replay-ingress":  *replayIngress != "",
			"-minimize":        *minimizeFlag,
			"-minimize-budget": *minimizeBudg != 0,
			"-golden":          *goldenFile != "",
			"-metrics-addr":    *metricsAddr != "",
			"-trace-out":       *traceOut != "",
		} {
			if set {
				log.Fatalf("%s requires -topology (it only applies to federated/distributed runs)", name)
			}
		}
	}
	if *updateGolden && *goldenFile == "" {
		log.Fatal("-update-golden requires -golden (the file to rewrite)")
	}
	if *replayIngress != "" && *replayFile == "" {
		log.Fatal("-replay-ingress requires -replay (the trace to feed through that ingress)")
	}
	if *minimizeBudg != 0 && !*minimizeFlag {
		log.Fatal("-minimize-budget requires -minimize (the loop it budgets)")
	}
	if *topologyFile != "" || genTopo != nil {
		// The default scenario for targets that don't name one: what the
		// user asked for with an explicit -scenario, else the federated
		// workhorse (routeleak — FederatedOptions' own default).
		defaultScenario := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scenario" {
				defaultScenario = scenarios[0]
			}
		})
		if defaultScenario != "" && len(scenarios) > 1 {
			log.Printf("federated mode uses one default scenario; taking %q (topology explore entries may still name others)", defaultScenario)
		}
		var properties []string
		for _, path := range strings.Split(*propsFlag, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			b, err := os.ReadFile(path)
			if err != nil {
				log.Fatal(err)
			}
			properties = append(properties, string(b))
		}
		run := fedRun{
			topoPath:        *topologyFile,
			topo:            genTopo,
			defaultScenario: defaultScenario,
			properties:      properties,
			engOpts: concolic.Options{
				MaxRuns: *runs,
			},
			workers:        *workers,
			rounds:         *rounds,
			propSteps:      *propSteps,
			verbose:        *verbose,
			minimize:       *minimizeFlag,
			minimizeBudget: *minimizeBudg,
			replayFile:     *replayFile,
			replayIngress:  *replayIngress,
			goldenFile:     *goldenFile,
			updateGolden:   *updateGolden,
			rpcTimeout:     *rpcTimeout,
			dialTimeout:    *dialTimeout,
			metricsAddr:    *metricsAddr,
			traceOut:       *traceOut,
		}
		if *distributed != "" {
			runDistributed(run, *distributed)
		} else {
			runFederated(run)
		}
		return
	}

	filterSrc := ""
	switch {
	case *filterFile != "":
		b, err := os.ReadFile(*filterFile)
		if err != nil {
			log.Fatal(err)
		}
		filterSrc = string(b)
	case *filterKind == "broken":
		filterSrc = core.BrokenCustomerFilter
	case *filterKind == "correct":
		filterSrc = core.CorrectCustomerFilter
	case *filterKind == "missing":
		filterSrc = core.MissingCustomerFilter
	default:
		log.Fatalf("unknown -filter %q", *filterKind)
	}

	if *audit {
		f, err := filter.Parse(filterSrc)
		if err != nil {
			log.Fatal(err)
		}
		rep := core.AuditFilter(f, *runs)
		fmt.Print(rep)
		if len(rep.DeadTrue)+len(rep.DeadFalse) == 0 {
			fmt.Println("no dead clauses or redundant guards found")
		}
		return
	}

	var anycast []netaddr.Prefix
	if *anycastStr != "" {
		p, err := netaddr.ParsePrefix(*anycastStr)
		if err != nil {
			log.Fatal(err)
		}
		anycast = append(anycast, p)
	}

	fig, err := core.NewFig2(core.Fig2Options{CustomerFilter: filterSrc, Anycast: anycast})
	if err != nil {
		log.Fatal(err)
	}

	var records []trace.Record
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		records, err = trace.Read(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := trace.DefaultGenConfig()
		cfg.TableSize = *tableSize
		cfg.UpdateCount = 0
		records = trace.Generate(cfg)
	}
	records = append(records, core.Victims()...)

	start := time.Now()
	n, err := fig.LoadTable(records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d prefixes into the provider in %v (RIB: %d prefixes)\n",
		n, time.Since(start).Round(time.Millisecond), fig.Provider.RIB().Prefixes())

	d := core.New(fig.Provider, core.Options{
		Engine: concolic.Options{
			MaxRuns: *runs,
			Workers: *workers,
		},
		ReuseState: *rounds > 1,
	})

	for round := 1; round <= *rounds; round++ {
		if *rounds > 1 {
			fmt.Printf("\n======== round %d/%d ========\n", round, *rounds)
		}
		for _, name := range scenarios {
			res, err := d.ExploreScenario(name, core.NodeCustomer)
			if err != nil {
				log.Fatal(err)
			}
			printResult(name, res, *verbose)
		}
	}

	if *rounds > 1 {
		fmt.Println()
		for _, name := range scenarios {
			if st := d.State(name, core.NodeCustomer); st != nil {
				s := st.Stats()
				fmt.Printf("%s state after %d rounds: %d paths, %d negations attempted\n",
					name, s.Rounds, s.Paths, s.Negations)
			}
		}
	}
}

// fedRun carries the federated/distributed mode configuration: the
// exploration knobs plus the regression-harness additions (trace
// replay, witness minimization, golden-file comparison).
type fedRun struct {
	topoPath        string
	topo            *core.Topology // pre-generated (-asgen); topoPath unused when set
	defaultScenario string
	properties      []string // -properties file contents (merged over the builtins by kind)
	engOpts         concolic.Options
	workers         int
	rounds          int
	propSteps       int
	verbose         bool
	minimize        bool
	minimizeBudget  int
	replayFile      string
	replayIngress   string
	goldenFile      string
	updateGolden    bool
	rpcTimeout      time.Duration
	dialTimeout     time.Duration
	metricsAddr     string
	traceOut        string
}

// telemetrySetup builds the run's registry and tracer (nil when the
// flags are off) and serves the HTTP endpoint when -metrics-addr is
// set. The coordinator process never drains, so its readiness check is
// unconditional.
func (r fedRun) telemetrySetup() (*telemetry.Registry, *telemetry.Tracer) {
	var reg *telemetry.Registry
	if r.metricsAddr != "" {
		reg = telemetry.NewRegistry()
		health := telemetry.NewHealth()
		mln, err := net.Listen("tcp", r.metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry on http://%s/metrics\n", mln.Addr())
		go func() {
			srv := telemetry.NewServer(reg, health)
			if err := srv.Serve(mln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("telemetry server: %v", err)
			}
		}()
	}
	var tracer *telemetry.Tracer
	if r.traceOut != "" {
		tracer = telemetry.NewTracer()
	}
	return reg, tracer
}

// writeTrace dumps the collected spans to -trace-out.
func (r fedRun) writeTrace(tracer *telemetry.Tracer) {
	if tracer == nil {
		return
	}
	if err := tracer.WriteFile(r.traceOut); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s (%d span(s))\n", r.traceOut, tracer.Len())
}

// loadTopo resolves the run's topology: the pre-generated one (-asgen)
// or the -topology file.
func (r fedRun) loadTopo() (*core.Topology, error) {
	if r.topo != nil {
		return r.topo, nil
	}
	return core.LoadTopology(r.topoPath)
}

func (r fedRun) options() core.FederatedOptions {
	return core.FederatedOptions{
		Engine:              r.engOpts,
		Workers:             r.workers,
		DefaultScenario:     r.defaultScenario,
		MaxPropagationSteps: r.propSteps,
		ReuseState:          r.rounds > 1,
		Minimize:            r.minimize,
		MinimizeBudget:      r.minimizeBudget,
		Properties:          r.properties,
	}
}

// ingress resolves the -replay-ingress flag ("node<-peer") against the
// topology, defaulting to the first resolved explore target — the
// peering the recorded history is assumed captured on.
func (r fedRun) ingress(topo *core.Topology) (node, peer string, err error) {
	if r.replayIngress != "" {
		parts := strings.SplitN(r.replayIngress, "<-", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return "", "", fmt.Errorf("-replay-ingress %q: want 'node<-peer'", r.replayIngress)
		}
		return parts[0], parts[1], nil
	}
	targets := topo.ResolveTargets(r.defaultScenario)
	if len(targets) == 0 {
		return "", "", fmt.Errorf("-replay: topology has no explore targets to default the ingress from; use -replay-ingress")
	}
	return targets[0].Node, targets[0].Peer, nil
}

// readReplay loads the -replay trace file (nil when the flag is unset).
func (r fedRun) readReplay() []trace.Record {
	if r.replayFile == "" {
		return nil
	}
	f, err := os.Open(r.replayFile)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	records, err := trace.Read(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		log.Fatal(err)
	}
	return records
}

// checkGolden diffs the last round's canonical finding snapshot against
// -golden (or rewrites it under -update-golden). A mismatch is fatal:
// the harness exits non-zero naming the first divergent finding.
func (r fedRun) checkGolden(snapshot []string) {
	if r.goldenFile == "" {
		return
	}
	if err := regress.Check(r.goldenFile, snapshot, r.updateGolden); err != nil {
		log.Fatal(err)
	}
	if r.updateGolden {
		fmt.Printf("\nwrote %s (%d lines)\n", r.goldenFile, len(snapshot))
	} else {
		fmt.Printf("\nfinding snapshot matches %s\n", r.goldenFile)
	}
}

// printMinimization renders a target's witness-minimization outcome —
// one copy shared by the in-process and distributed modes.
func printMinimization(findings []core.Finding, st *minimize.Stats) {
	for _, f := range findings {
		if f.MinimalWitness != nil {
			fmt.Printf("  minimal witness: %s\n", minimize.Render(f.MinimalWitness))
		}
	}
	if st != nil {
		fmt.Printf("minimization: %s\n", st)
	}
}

// runFederated is the -topology mode: instantiate the multi-AS topology,
// optionally replay a recorded trace into it, run federated rounds
// (per-node concolic exploration over a shared worker pool, cross-node
// witness propagation, cross-node oracles, optional witness
// minimization) and report both the per-node results and the cross-node
// violations; -golden then diffs the final round's finding snapshot.
func runFederated(run fedRun) {
	topo, err := run.loadTopo()
	if err != nil {
		log.Fatal(err)
	}
	reg, tracer := run.telemetrySetup()
	if reg != nil {
		// In-process rounds surface the concolic engine's own families;
		// there is no RPC layer to instrument.
		run.engOpts.Metrics = concolic.NewMetrics(reg)
	}
	fe, err := core.NewFederatedExperiment(topo, run.options())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("federated topology %q: %d nodes, %d edges\n", topo.Name, len(topo.Nodes), len(topo.Edges))
	for _, name := range fe.Fabric.NodeNames() {
		r := fe.Fabric.Routers[name]
		fmt.Printf("  %-12s AS%-6d %d prefixes after convergence\n",
			name, r.Config().LocalAS, r.RIB().Prefixes())
	}

	if records := run.readReplay(); records != nil {
		node, peer, err := run.ingress(topo)
		if err != nil {
			log.Fatal(err)
		}
		n, err := fe.Replay(node, peer, records)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replayed %d trace record(s) into %s←%s (%s: %d prefixes after replay)\n",
			n, node, peer, node, fe.Fabric.Routers[node].RIB().Prefixes())
	}

	confirmed := 0
	var last *core.FederatedResult
	for round := 1; round <= run.rounds; round++ {
		if run.rounds > 1 {
			fmt.Printf("\n======== federated round %d/%d ========\n", round, run.rounds)
		}
		roundStart := time.Now()
		res, err := fe.Round()
		if err != nil {
			log.Fatal(err)
		}
		// In-process rounds get one coarse span each; the distributed
		// mode traces per-RPC inside the coordinator instead.
		tracer.Add("federated", fmt.Sprintf("round %d", round), roundStart, time.Since(roundStart))
		last = res
		for _, tr := range res.Targets {
			label := fmt.Sprintf("%s←%s", tr.Node, tr.Peer)
			if tr.Err != nil {
				fmt.Printf("\n[%s] skipped: %v\n", label, tr.Err)
				continue
			}
			printResult(label+" "+tr.Scenario, tr.Result, run.verbose)
			printMinimization(tr.Result.Findings, tr.Result.Minimization)
		}
		confirmed += printCrossNodeSummary("cross-node propagation",
			fmt.Sprintf("%d witness(es) injected into the shadow fabric, %d deliveries propagated",
				res.WitnessesInjected, res.PropagationSteps),
			res.WitnessesSkipped, res.Violations)
	}
	if run.rounds > 1 {
		fmt.Printf("\n%d violation(s) confirmed across %d rounds\n", confirmed, run.rounds)
	}
	run.writeTrace(tracer)
	run.checkGolden(last.Snapshot())
}

// runDistributed is the -distributed mode: the same federated rounds as
// runFederated, but each node lives in its own dicenode agent process
// and every per-node operation — including trace replay and the
// candidate re-injections behind -minimize — crosses the dist wire
// protocol.
func runDistributed(run fedRun, addrs string) {
	topo, err := run.loadTopo()
	if err != nil {
		log.Fatal(err)
	}
	var dialers []dist.Dialer
	for _, addr := range strings.Split(addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		dialers = append(dialers, dist.TCPDialer{Addr: addr, Timeout: run.dialTimeout})
	}
	copts := []dist.ConnOption{dist.WithRetryPolicy(dist.RetryPolicy{RPCTimeout: run.rpcTimeout})}
	reg, tracer := run.telemetrySetup()
	if reg != nil {
		copts = append(copts, dist.WithTelemetry(dist.NewMetrics(reg)))
	}
	if tracer != nil {
		copts = append(copts, dist.WithTracer(tracer))
	}
	coord, err := dist.Connect(topo, run.options(), dialers, copts...)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	fmt.Printf("distributed topology %q: %d nodes across %d agents, %d edges\n",
		topo.Name, len(topo.Nodes), len(dialers), len(topo.Edges))
	fmt.Printf("wire protocol v%d with %d agent(s)\n", dist.ProtoVersion, len(dialers))

	if run.replayFile != "" {
		node, peer, err := run.ingress(topo)
		if err != nil {
			log.Fatal(err)
		}
		raw, err := os.ReadFile(run.replayFile)
		if err != nil {
			log.Fatal(err)
		}
		n, err := coord.Replay(node, peer, raw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replayed %d trace record(s) into %s←%s on every agent\n", n, node, peer)
	}

	confirmed := 0
	var last *dist.RoundResult
	for round := 1; round <= run.rounds; round++ {
		if run.rounds > 1 {
			fmt.Printf("\n======== distributed round %d/%d ========\n", round, run.rounds)
		}
		res, err := coord.Round()
		if err != nil {
			log.Fatal(err)
		}
		last = res
		for _, tr := range res.Targets {
			label := fmt.Sprintf("%s←%s", tr.Node, tr.Peer)
			if tr.Skipped != "" {
				fmt.Printf("\n[%s] skipped: %s\n", label, tr.Skipped)
				continue
			}
			ex := tr.Explore
			printExploreStats(label+" "+tr.Scenario, ex.Runs, ex.NewPaths, ex.BranchesSeen,
				time.Duration(ex.ElapsedNS), ex.SolverCalls, ex.SolverSat, ex.SolverUnsat,
				ex.SkippedPaths, ex.SkippedNegations, ex.CapturedMessages)
			printFindings(tr.Findings, run.verbose)
			printMinimization(tr.Findings, tr.Minimization)
		}
		confirmed += printCrossNodeSummary("cross-domain propagation",
			fmt.Sprintf("%d witness(es) relayed between agents, %d deliveries propagated",
				res.WitnessesInjected, res.PropagationSteps),
			res.WitnessesSkipped, res.Violations)
	}
	if run.rounds > 1 {
		fmt.Printf("\n%d violation(s) confirmed across %d rounds\n", confirmed, run.rounds)
	}
	printFleetHealth(last.Health)
	run.writeTrace(tracer)
	run.checkGolden(last.Snapshot())
}

// printFleetHealth reports nodes that limped through the run: reconnects
// survived, and any node degraded to its in-process fallback. Healthy
// silence is the common case — a clean fleet prints nothing.
func printFleetHealth(health map[string]dist.NodeHealth) {
	var names []string
	for n, h := range health {
		if h.State != dist.HealthHealthy || h.Faults > 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("\nfleet health:")
	for _, n := range names {
		h := health[n]
		fmt.Printf("  %-12s %s (%d fault(s), %d reconnect(s))", n, h.State, h.Faults, h.Reconnects)
		if h.LastFault != "" {
			fmt.Printf(" — last: %s", h.LastFault)
		}
		fmt.Println()
	}
}

// printCrossNodeSummary renders a round's witness-propagation summary
// and its violations — shared by the in-process and distributed modes
// (the CI walkthrough smokes grep this output, so there is exactly one
// copy of it). It returns the number of violations printed.
func printCrossNodeSummary(header, witnessLine string, skipped int, violations []core.FederatedViolation) int {
	fmt.Printf("\n== %s ==\n", header)
	fmt.Println(witnessLine)
	if skipped > 0 {
		fmt.Printf("%d witness(es) dropped by the per-round cap\n", skipped)
	}
	if len(violations) == 0 {
		fmt.Println("no cross-node oracle violations")
		return 0
	}
	fmt.Printf("%d CONFIRMED cross-node oracle violation(s):\n", len(violations))
	for _, v := range violations {
		fmt.Printf("  %s\n", v)
	}
	return len(violations)
}

// resolveScenarios expands the -scenario flag against the registry.
func resolveScenarios(flagVal string) ([]string, error) {
	var names []string
	if flagVal == "all" {
		names = core.ScenarioNames()
	} else {
		for _, n := range strings.Split(flagVal, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, err := core.LookupScenario(n); err != nil {
				return nil, err
			}
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return names, nil
}

// printExploreStats renders the per-target exploration stat lines —
// one copy shared by the local/federated printResult and the
// distributed mode (whose stats arrive as wire fields, not a Report).
func printExploreStats(label string, runs, newPaths, branches int, elapsed time.Duration,
	solverCalls, sat, unsat, skippedPaths, skippedNegations, captured int) {
	fmt.Printf("\n[%s] exploration: %d runs, %d new paths, %d branches seen, %v\n",
		label, runs, newPaths, branches, elapsed.Round(time.Millisecond))
	fmt.Printf("[%s] solver: %d queries solved (%d sat, %d unsat)\n",
		label, solverCalls, sat, unsat)
	if skippedPaths+skippedNegations > 0 {
		fmt.Printf("[%s] warm state: %d known paths and %d known negations skipped\n",
			label, skippedPaths, skippedNegations)
	}
	fmt.Printf("[%s] isolation: %d messages produced by clones, all intercepted\n",
		label, captured)
}

// printResult renders one round's outcome: the shared exploration stats,
// then the scenario-specific report.
func printResult(name string, res *core.Result, verbose bool) {
	rep := res.Report
	printExploreStats(name, rep.Runs, len(rep.Paths), rep.BranchesSeen, rep.Elapsed,
		rep.SolverCalls, rep.SolverSat, rep.SolverUnsat,
		rep.SkippedPaths, rep.SkippedNegations, res.CapturedMessages)

	if verbose {
		for _, p := range rep.Paths {
			fmt.Printf("  path %d: env=%v\n", p.Seq, p.Env)
		}
	}

	if s, ok := res.Details.(fmt.Stringer); ok {
		fmt.Print(s.String())
	}

	switch {
	case len(res.Findings) == 0 && name == core.ScenarioUpdate && rep.SkippedPaths > 0:
		// Warm round: oracles only see paths new to this round, so "no
		// findings" here must not read as "the earlier findings are gone".
		fmt.Println("no NEW potential hijacks found this round (known paths skipped; see earlier rounds)")
	case len(res.Findings) == 0 && name == core.ScenarioUpdate:
		fmt.Println("no potential hijacks found")
	}
	printFindings(res.Findings, verbose)
	if res.FalsePositivesFiltered > 0 {
		fmt.Printf("%d anycast false positive(s) suppressed\n", res.FalsePositivesFiltered)
	}
}

// printFindings lists a target's findings for every mode; -v adds each
// one's witness input, which (unlike per-path envs) crosses the wire.
func printFindings(findings []core.Finding, verbose bool) {
	if len(findings) == 0 {
		return
	}
	fmt.Printf("%d finding(s):\n", len(findings))
	for _, f := range findings {
		fmt.Printf("  %s\n", f)
		if verbose {
			fmt.Printf("    witness input: %v\n", f.Input)
		}
	}
}
