// Command troxy-replica runs one replica of a Troxy-backed deployment over
// real TCP: a bridge port for replica-to-replica traffic and a gateway port
// where legacy clients connect.
//
// A three-replica KV cluster on one machine:
//
//	troxy-replica -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	              -clients 127.0.0.1:8000 &
//	troxy-replica -id 1 -peers ... -clients 127.0.0.1:8001 &
//	troxy-replica -id 2 -peers ... -clients 127.0.0.1:8002 &
//	troxy-client  -servers 127.0.0.1:8000,127.0.0.1:8001,127.0.0.1:8002 PUT k v
//
// All replicas must share -master (the deployment provisioning secret).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/httpfront"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "troxy-replica:", err)
		os.Exit(1)
	}
}

func run() error {
	id := flag.Int("id", 0, "replica ID (0..n-1)")
	peers := flag.String("peers", "", "comma-separated bridge addresses of all replicas, in ID order")
	clients := flag.String("clients", "", "listen address for legacy clients")
	master := flag.String("master", "troxy-development-master-secret", "deployment master secret")
	mode := flag.String("mode", "etroxy", "system mode: etroxy, ctroxy or baseline")
	application := flag.String("app", "kv", "application: kv or http")
	fastReads := flag.Bool("fast-reads", true, "enable the fast-read cache")
	batchSize := flag.Int("batch", 16, "max requests per ordered batch (0: order each request individually)")
	batchDelay := flag.Duration("batch-delay", time.Millisecond, "how long the leader waits to fill a batch")
	pipelineDepth := flag.Int("pipeline-depth", 4, "leader's in-flight batch window; 0 restores the unbounded legacy ordering (must match on every replica: the depth shapes the trusted-counter lane assignment)")
	flag.Parse()

	peerAddrs := strings.Split(*peers, ",")
	n := len(peerAddrs)
	if n < 3 || n%2 == 0 {
		return fmt.Errorf("-peers must list 2f+1 ≥ 3 addresses, got %d", n)
	}
	if *id < 0 || *id >= n {
		return fmt.Errorf("-id %d out of range for %d replicas", *id, n)
	}

	cfg := troxy.ClusterConfig{
		N:             n,
		F:             (n - 1) / 2,
		MasterSecret:  []byte(*master),
		FastReads:     *fastReads,
		BatchSize:     *batchSize,
		BatchDelay:    *batchDelay,
		PipelineDepth: *pipelineDepth,
	}
	switch *mode {
	case "etroxy":
		cfg.Mode = troxy.ETroxy
	case "ctroxy":
		cfg.Mode = troxy.CTroxy
	case "baseline":
		cfg.Mode = troxy.Baseline
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	switch *application {
	case "kv":
		cfg.App = app.NewStoreFactory()
		cfg.Classify = app.NewStore().IsRead
	case "http":
		cfg.App = app.NewHTTPAppFactory(map[string][]byte{
			"/index.html": []byte("<h1>Troxy-backed page service</h1>\n"),
		})
		cfg.Classify = httpfront.IsRead
		cfg.HTTP = true
	default:
		return fmt.Errorf("unknown -app %q", *application)
	}

	// Each process assembles the full cluster configuration (the shared
	// deployment keys derive from the master secret) but attaches only its
	// own replica.
	cluster, err := troxy.NewCluster(cfg)
	if err != nil {
		return err
	}

	router := realnet.NewRouter()
	defer router.Close()
	router.Attach(msg.NodeID(*id), cluster.Replicas[*id])

	book := make(map[msg.NodeID]string, n)
	for i, addr := range peerAddrs {
		if i != *id {
			book[msg.NodeID(i)] = addr
		}
	}
	bridge := realnet.NewBridge(router, book)
	if err := bridge.Listen(peerAddrs[*id]); err != nil {
		return err
	}
	defer bridge.Close()
	fmt.Printf("replica %d: bridge on %s (mode %s, app %s)\n", *id, peerAddrs[*id], *mode, *application)

	if *clients != "" {
		l, err := net.Listen("tcp", *clients)
		if err != nil {
			return err
		}
		gw := realnet.NewGateway(router, msg.NodeID(*id), msg.NodeID(1000+(*id)*100000))
		go gw.Serve(l)
		defer gw.Close()
		fmt.Printf("replica %d: client gateway on %s\n", *id, *clients)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("replica %d: shutting down\n", *id)
	return nil
}
