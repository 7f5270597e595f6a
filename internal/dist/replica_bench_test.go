package dist

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/topo"
)

// benchRTT is the simulated WAN round trip every replica call pays (via
// LatencyDialer). Replica pools earn their keep by overlapping these
// round trips across workers, so the scaling signal survives a
// single-core host where CPU-parallel speedup is impossible; 30ms is a
// same-continent RTT.
const benchRTT = 30 * time.Millisecond

// benchFabrics caches one generated AS topology + shared-fabric agent
// set per node count: at 1k nodes generation and fabric build dominate
// everything else the benchmark does, and every replica-count leg must
// measure rounds over the identical fabric anyway.
var benchFabrics sync.Map // nodes → *benchFabric

type benchFabric struct {
	once   sync.Once
	topo   *core.Topology
	agents map[string]*Agent
	err    error
}

func benchASFabric(tb testing.TB, nodes, targets int) (*core.Topology, map[string]*Agent) {
	tb.Helper()
	v, _ := benchFabrics.LoadOrStore(nodes, &benchFabric{})
	f := v.(*benchFabric)
	f.once.Do(func() {
		t, _, err := topo.Generate(topo.Spec{
			Seed:           1,
			Nodes:          nodes,
			ExploreTargets: targets,
			// Extra filter clauses give each shard real concolic work, so
			// a round measures explore+wire, not just RPC plumbing.
			PolicyClauses: 8,
		})
		if err != nil {
			f.err = err
			return
		}
		f.agents, f.err = NewSharedAgents(t)
		f.topo = t
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f.topo, f.agents
}

// BenchmarkReplicaScaling measures distributed round wall-clock on a
// generated AS-relationship topology as the replica pool grows: every
// explore shard pays a simulated WAN round trip to its replica, and the
// pool hides those round trips behind each other. The acceptance
// criterion is monotone improvement from 1 to 4 replicas with at least 1.8× at 4 — measured on the as1000 legs
// (-short runs a 200-node topology, proving only that the benchmark
// still runs).
func BenchmarkReplicaScaling(b *testing.B) {
	nodes, targets := 1000, 24
	if testing.Short() {
		nodes, targets = 200, 12
	}
	asTopo, agents := benchASFabric(b, nodes, targets)
	opts := core.FederatedOptions{
		Engine:  concolic.Options{MaxRuns: 1000},
		Workers: 1,
		// One witness and a tight relay bound keep the (replica-free)
		// propagation phase a small constant across legs: the variable
		// under measurement is the exploration fan-out.
		MaxWitnesses:        1,
		MaxPropagationSteps: 64,
	}
	dialers := make([]Dialer, 0, len(asTopo.Nodes))
	for _, n := range asTopo.Nodes {
		dialers = append(dialers, Loopback{Agent: agents[n.Name]})
	}
	for _, replicas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("as%d/replicas-%d", nodes, replicas), func(b *testing.B) {
			// The shared fabric keeps ~1GB live at 1k nodes; collecting the
			// previous leg's round garbage outside the timer keeps GC debt
			// from one leg inflating the next leg's wall-clock.
			runtime.GC()
			b.ResetTimer()
			shards := 0
			for i := 0; i < b.N; i++ {
				pool := &ReplicaPool{Min: replicas}
				for r := 0; r < replicas; r++ {
					pool.Dialers = append(pool.Dialers, LatencyDialer{
						Inner: ReplicaLoopback{Replica: NewReplica()},
						RTT:   benchRTT,
					})
				}
				coord, err := Connect(asTopo, opts, dialers, WithReplicas(pool))
				if err != nil {
					b.Fatal(err)
				}
				res, err := coord.Round()
				if err != nil {
					b.Fatal(err)
				}
				shards = pool.Stats().Completed
				if shards == 0 {
					b.Fatal("no shard reached the pool — the benchmark measured the agent fallback")
				}
				if len(res.Targets) != targets {
					b.Fatalf("round ran %d targets, want %d", len(res.Targets), targets)
				}
				coord.Close()
			}
			b.ReportMetric(float64(shards), "shards")
			b.ReportMetric(float64(replicas), "replicas")
		})
	}
}
