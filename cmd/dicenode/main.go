// Command dicenode is the DiCE node agent: it administers ONE node of a
// federated topology and serves the distributed wire protocol for it —
// checkpoint snapshots, concolic exploration of its own policy surface,
// shadow clones for witness propagation, and the narrow cross-domain
// oracle queries. A coordinator (dice -distributed) orchestrates a fleet
// of these into federated rounds; see internal/dist and
// examples/distributed/README.md.
//
// Each administrative domain runs its own agent:
//
//	dicenode -topology topo.json -node provider -listen 127.0.0.1:7411
//
// Agent and coordinator must be the same build: the hello carries one
// wire protocol version and a mismatch is refused on the first exchange.
//
// The agent instantiates the topology locally (deterministic
// convergence gives every agent the identical fabric picture) but
// exposes only the named node over the wire.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dice/internal/core"
	"dice/internal/dist"
	"dice/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dicenode: ")

	var (
		topologyFile = flag.String("topology", "", "JSON multi-AS topology file (required)")
		node         = flag.String("node", "", "topology node this agent administers (required)")
		listen       = flag.String("listen", "127.0.0.1:7411", "TCP address to serve the wire protocol on")
		grace        = flag.Duration("shutdown-grace", 5*time.Second, "on SIGTERM/SIGINT: how long to drain in-flight requests before force-closing connections")
		metricsAddr  = flag.String("metrics-addr", "", "TCP address for the telemetry endpoint (/metrics, /healthz, /debug/pprof/); empty disables it")
	)
	flag.Parse()

	if *topologyFile == "" || *node == "" {
		log.Fatal("both -topology and -node are required")
	}
	topo, err := core.LoadTopology(*topologyFile)
	if err != nil {
		log.Fatal(err)
	}
	agent, err := dist.NewAgent(topo, *node)
	if err != nil {
		log.Fatal(err)
	}

	// Telemetry endpoint: metrics exposition, drain-aware readiness, and
	// pprof. Readiness flips to 503 the moment the drain starts, so a
	// fleet manager stops routing to an agent that is on its way out
	// while its in-flight requests still complete.
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		agent.EnableTelemetry(reg)
		health := telemetry.NewHealth()
		health.AddReadiness("drain", func() error {
			if agent.Draining() {
				return errors.New("draining")
			}
			return nil
		})
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry on http://%s/metrics", mln.Addr())
		go func() {
			srv := telemetry.NewServer(reg, health)
			if err := srv.Serve(mln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("telemetry server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("agent for node %q of topology %q listening on %s", *node, topo.Name, ln.Addr())

	// Graceful shutdown: close the listener so no new connections race
	// in, then drain — every request already read gets its answer before
	// its connection closes, and stragglers are force-closed once the
	// grace period expires.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigc
		log.Printf("%v: draining (grace %v)", sig, *grace)
		ln.Close()
		agent.Shutdown(*grace)
		os.Exit(0)
	}()

	if err := agent.ListenAndServe(ln); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	// Listener closed by the signal handler: park until the drain exits.
	select {}
}
