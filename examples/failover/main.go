// Failover example: the fault-handling story of Section III-D, live.
//
// Two faults are injected into a running cluster:
//
//  1. The replica a client is connected to crashes mid-workload. The client
//     — which has no BFT logic at all, just an address list — times out,
//     reconnects to the next replica, retransmits, and continues. The
//     cluster deduplicates the retransmitted request.
//
//  2. The current LEADER crashes. The surviving replicas suspect it,
//     certify view-change messages with their trusted counters, install the
//     next view, and continue ordering.
//
//     go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:              troxy.ETroxy,
		App:               app.NewStoreFactory(),
		Classify:          app.NewStore().IsRead,
		ViewChangeTimeout: time.Second,
	})
	if err != nil {
		return err
	}

	router := realnet.NewRouter()
	defer router.Close()
	cluster.Attach(router)

	// One client gateway per replica, as in a real deployment.
	var addrs []string
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		gw := realnet.NewGateway(router, msg.NodeID(i), msg.NodeID(5000+i*1000))
		go gw.Serve(l)
		defer gw.Close()
		addrs = append(addrs, l.Addr().String())
	}

	// The client's failover order starts at replica 2.
	client, err := legacyclient.Dial([]string{addrs[2], addrs[1], addrs[0]},
		cluster.ServerPub, 7, 2*time.Second)
	if err != nil {
		return err
	}
	defer client.Close()

	do := func(op string, read bool) error {
		start := time.Now()
		res, err := client.Request([]byte(op), read)
		if err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		fmt.Printf("  %-12s -> %-24s (%s)\n", op, res, time.Since(start).Round(time.Millisecond))
		return nil
	}

	fmt.Println("normal operation (connected to replica 2):")
	if err := do("PUT k v1", false); err != nil {
		return err
	}
	if err := do("GET k", true); err != nil {
		return err
	}

	fmt.Println("\ncrashing replica 2 (the client's Troxy)...")
	router.Crash(2)
	if err := do("PUT k v2", false); err != nil {
		return err
	}
	fmt.Println("  client failed over and the write completed exactly once")
	if err := do("GET k", true); err != nil {
		return err
	}

	fmt.Println("\nrestoring replica 2, then crashing replica 0 (the LEADER)...")
	router.Restore(2) // only f=1 faults at a time are tolerated
	router.Crash(0)
	if err := do("PUT k v3", false); err != nil {
		return err
	}
	if err := do("GET k", true); err != nil {
		return err
	}
	// A replica's Core belongs to its handler goroutine while the router
	// runs: stop the router before reading it.
	router.Close()
	core := cluster.Replicas[1].Core()
	fmt.Printf("  replica 1 now in view %d (leader %d), executed %d requests\n",
		core.View(), core.Leader(core.View()), core.LastExecuted())
	fmt.Println("\nthe service stayed available through both faults (f=1 each time)")
	return nil
}
