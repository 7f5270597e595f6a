// Command dicereplica is a stateless DiCE exploration replica: it
// administers no node and holds no fabric, but serves explore_checkpoint
// over the distributed wire protocol — a coordinator ships it a node's
// checkpointed state, config, and scenario seed, and the replica runs
// the identical per-target exploration pipeline the node's own agent
// would, returning findings, witnesses and frontier memory. A pool of
// replicas (dice -distributed -replica-addrs ...) scales a round's
// exploration phase horizontally; see internal/dist and
// examples/asgen/README.md.
//
//	dicereplica -listen 127.0.0.1:7421
//
// Replicas are interchangeable: they carry no per-node identity, so one
// process can serve shards from any node of any topology, and killing
// one mid-round only moves its shard to a surviving replica.
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

	"dice/internal/dist"
	"dice/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dicereplica: ")

	var (
		listen  = flag.String("listen", "127.0.0.1:7421", "TCP address to serve the wire protocol on")
		grace   = flag.Duration("shutdown-grace", 5*time.Second, "on SIGTERM/SIGINT: how long to drain in-flight requests before force-closing connections")
		metrics = flag.String("metrics-addr", "", "TCP address for the telemetry endpoint (/metrics, /healthz, /debug/pprof/); empty disables it")
	)
	flag.Parse()

	replica := dist.NewReplica()

	// Telemetry endpoint, mirroring dicenode: exposition + drain-aware
	// readiness + pprof.
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		replica.EnableTelemetry(reg)
		health := telemetry.NewHealth()
		health.AddReadiness("drain", func() error {
			if replica.Draining() {
				return errors.New("draining")
			}
			return nil
		})
		mln, err := net.Listen("tcp", *metrics)
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
	log.Printf("exploration replica listening on %s", ln.Addr())

	// Graceful shutdown, exactly as dicenode: close the listener first,
	// then drain in-flight requests within the grace period.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigc
		log.Printf("%v: draining (grace %v)", sig, *grace)
		ln.Close()
		replica.Shutdown(*grace)
		os.Exit(0)
	}()

	if err := replica.ListenAndServe(ln); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	// Listener closed by the signal handler: park until the drain exits.
	select {}
}
