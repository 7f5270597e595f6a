package main

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"testing"
	"time"

	"dice/internal/config"
	"dice/internal/netsim"
	"dice/internal/router"
)

// TestReportListsPeersInConfigOrder: a hub with four peers reports its
// sessions in the order its config names them, every run.
func TestReportListsPeersInConfigOrder(t *testing.T) {
	spokes := []string{"delta", "alpha", "echo", "bravo"}
	net := netsim.New(time.Unix(1e9, 0))
	routers := map[string]*router.Router{}
	hubSrc := "router id 10.0.0.1;\nlocal as 65000;\nnetwork 10.1.0.0/16;\n"
	for i, name := range spokes {
		hubSrc += fmt.Sprintf("peer %s { remote 10.0.0.%d as %d; }\n", name, i+2, 65001+i)
	}
	srcs := map[string]string{"hub": hubSrc}
	for i, name := range spokes {
		srcs[name] = fmt.Sprintf("router id 10.0.0.%d;\nlocal as %d;\npeer hub { remote 10.0.0.1 as 65000; }\n", i+2, 65001+i)
	}
	order := append([]string{"hub"}, spokes...)
	for _, name := range order {
		cfg, err := config.Parse(srcs[name])
		if err != nil {
			t.Fatal(err)
		}
		routers[name] = router.New(name, cfg, net)
		if err := net.AddNode(name, routers[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range spokes {
		if err := net.Connect("hub", name, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range order {
		if err := routers[name].Start(net.Now()); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(0)

	for run := 0; run < 5; run++ {
		var out bytes.Buffer
		report(&out, []string{"hub"}, routers, false)
		var peers []string
		for _, m := range regexp.MustCompile(`(?m)^  peer (\S+)\s+state Established`).FindAllStringSubmatch(out.String(), -1) {
			peers = append(peers, m[1])
		}
		if !slices.Equal(peers, spokes) {
			t.Fatalf("report lists established peers %v, want config order %v:\n%s", peers, spokes, out.String())
		}
	}
}
