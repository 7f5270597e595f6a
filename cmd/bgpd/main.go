// Command bgpd runs a set of BGP daemons on the in-memory virtual
// network, converges them, and prints their routing tables — the
// equivalent of bringing up the paper's BIRD testbed.
//
// Each -config file defines one router; the file's base name (without
// extension) is its node name, which peer blocks in other configs refer
// to. Links are given as -link a:b pairs.
//
// Usage:
//
//	bgpd -config provider.conf -config customer.conf -link provider:customer
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dice/internal/config"
	"dice/internal/netsim"
	"dice/internal/router"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpd: ")

	var configs, links stringList
	flag.Var(&configs, "config", "router config file (repeatable)")
	flag.Var(&links, "link", "link between two routers, as name:name (repeatable)")
	latency := flag.Duration("latency", time.Millisecond, "link latency")
	dump := flag.Bool("dump", true, "print converged routing tables")
	flag.Parse()

	if len(configs) == 0 {
		log.Fatal("at least one -config is required")
	}

	net := netsim.New(time.Now())
	routers := map[string]*router.Router{}
	var order []string

	for _, path := range configs {
		src, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err := config.Parse(string(src))
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		r := router.New(name, cfg, net)
		if err := net.AddNode(name, r); err != nil {
			log.Fatal(err)
		}
		routers[name] = r
		order = append(order, name)
	}

	for _, l := range links {
		parts := strings.SplitN(l, ":", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -link %q, want a:b", l)
		}
		if err := net.Connect(parts[0], parts[1], *latency); err != nil {
			log.Fatal(err)
		}
	}

	for _, name := range order {
		if err := routers[name].Start(net.Now()); err != nil {
			log.Fatal(err)
		}
	}
	delivered := net.Run(0)
	fmt.Printf("converged: %d routers, %d messages delivered\n", len(routers), delivered)
	report(os.Stdout, order, routers, *dump)
}

// report prints every router, in the order given: its sessions, one per
// configured peer in config order, and with dump its routing table.
func report(w io.Writer, order []string, routers map[string]*router.Router, dump bool) {
	for _, name := range order {
		r := routers[name]
		fmt.Fprintf(w, "\n=== %s (AS%d, router-id %s): %d prefixes, %d routes ===\n",
			name, r.Config().LocalAS, r.Config().RouterID, r.RIB().Prefixes(), r.RIB().Routes())
		for _, p := range r.Config().Peers {
			sess := r.Session(p.Name)
			fmt.Fprintf(w, "  peer %-12s state %-12v in %d out %d\n",
				p.Name, sess.State(), sess.UpdatesIn, sess.UpdatesOut)
		}
		if dump {
			for _, rt := range r.RIB().Dump() {
				fmt.Fprintf(w, "  %s\n", rt)
			}
		}
	}
}
