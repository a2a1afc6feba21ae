package experiments

import (
	"crypto/ed25519"
	"fmt"
	"slices"
	"time"

	root "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/bftclient"
	"github.com/troxy-bft/troxy/internal/httpfront"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/prophecy"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/standalone"
	"github.com/troxy-bft/troxy/internal/workload"
)

// httpSystem names the four implementations of Section VI-D.
type httpSystem uint8

const (
	sysJetty httpSystem = iota + 1
	sysBL
	sysProphecy
	sysTroxy
)

func (s httpSystem) String() string {
	switch s {
	case sysJetty:
		return "Jetty (standalone)"
	case sysBL:
		return "BL"
	case sysProphecy:
		return "Prophecy"
	case sysTroxy:
		return "Troxy"
	default:
		return "?"
	}
}

const (
	middleboxID  msg.NodeID = 50
	standaloneID msg.NodeID = 60
)

// httpPages are the served pages; the paper's responses range 4..18 KiB.
func httpPages() (map[string][]byte, []string) {
	sizes := map[string]int{
		"/p4.html":  4 << 10,
		"/p8.html":  8 << 10,
		"/p12.html": 12 << 10,
		"/p18.html": 18 << 10,
	}
	pages := make(map[string][]byte, len(sizes))
	var paths []string
	for path, n := range sizes {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte('a' + i%26)
		}
		pages[path] = body
		paths = append(paths, path)
	}
	// The workload draws an index into paths: map order would give every
	// run of one seed other page sizes.
	slices.Sort(paths)
	return pages, paths
}

// Fig11 reproduces Figure 11: average latency of the replicated HTTP
// service under non-saturating fixed-rate load (100 clients, 500 req/s
// total), local and WAN, for the standalone server, the baseline, Prophecy,
// and Troxy.
func Fig11(opt Options) []*Table {
	t := &Table{
		ID:      "fig11",
		Title:   "HTTP service: average request latency (100 clients, 500 req/s)",
		Columns: []string{"scenario", "system", "mean-lat(ms)", "p90(ms)", "ops"},
		Notes: []string{
			"GET/POST with 200 B requests; responses 4-18 KiB; 90% GETs",
			"Prophecy middlebox sits next to the replicas (its voter is close to them)",
		},
	}
	for _, wan := range []bool{false, true} {
		scenario := "local"
		if wan {
			scenario = "WAN"
		}
		for _, sys := range []httpSystem{sysJetty, sysBL, sysProphecy, sysTroxy} {
			opt.progress("fig11: %s %s ...", scenario, sys)
			res := runHTTP(opt, sys, wan)
			t.AddRow(scenario, sys.String(), ms(res.Mean), ms(res.P90),
				fmt.Sprintf("%d", res.Count))
		}
	}
	return []*Table{t}
}

func runHTTP(opt Options, sys httpSystem, wan bool) workload.Result {
	warmup, measure := opt.measureDurations(wan)
	if opt.Quick {
		warmup, measure = time.Second, 3*time.Second
	}
	clientsPerMach := 50
	ratePerClient := 5.0 // 2 machines x 50 clients x 5/s = 500 req/s
	if opt.Quick {
		clientsPerMach = 20
	}

	pages, paths := httpPages()
	gen := workload.HTTPGen{Paths: paths, ReadRatio: 0.9, PostSize: 200}
	rec := workload.NewRecorder()

	net := simnet.New(opt.seed(), simnet.DefaultCostModel())
	net.SetDefaultLink(simnet.LANLatency)

	// Assemble the server side.
	var (
		serverPub   ed25519.PublicKey
		directConns []msg.NodeID // what legacy clients connect to
		cluster     *root.Cluster
	)
	mode := root.Baseline
	fastReads := false
	switch sys {
	case sysTroxy:
		mode, fastReads = root.ETroxy, true
	case sysJetty, sysBL, sysProphecy:
		mode = root.Baseline
	}

	needCluster := sys != sysJetty
	if needCluster {
		var err error
		cluster, err = root.NewCluster(root.ClusterConfig{
			Mode:              mode,
			App:               app.NewHTTPAppFactory(pages),
			Classify:          httpfront.IsRead,
			FastReads:         fastReads,
			HTTP:              true,
			Seed:              opt.seed(),
			ViewChangeTimeout: 30 * time.Second,
			TickInterval:      25 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("fig11: cluster: %v", err))
		}
		cluster.Attach(net)
		serverPub = cluster.ServerPub
		directConns = cluster.ReplicaIDs()
	}

	switch sys {
	case sysJetty:
		seed := make([]byte, ed25519.SeedSize)
		copy(seed, "fig11-standalone-identity-seed!!")
		srv := standalone.New(standalone.Config{
			Self:         standaloneID,
			IdentitySeed: seed,
			App:          app.NewHTTPAppFactory(pages)(),
			HTTP:         true,
		})
		net.Attach(standaloneID, srv)
		serverPub = ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		directConns = []msg.NodeID{standaloneID}
	case sysProphecy:
		mb := prophecy.New(prophecy.Config{
			Self:         middleboxID,
			N:            cluster.Config.N,
			F:            cluster.Config.F,
			Directory:    cluster.Directory,
			IdentitySeed: cluster.Directory.ServiceIdentitySeed(),
			Classify:     httpfront.IsRead,
			HTTP:         true,
			Timeout:      5 * time.Second,
		})
		net.Attach(middleboxID, mb)
		directConns = []msg.NodeID{middleboxID}
	}

	machines := []msg.NodeID{machineA, machineB}
	if wan {
		// The emulated delay sits on the client machines' NICs: every link
		// from a client machine is delayed, whoever the peer is.
		for _, m := range machines {
			targets := append(append([]msg.NodeID{}, directConns...), middleboxID, standaloneID)
			if cluster != nil {
				targets = append(targets, cluster.ReplicaIDs()...)
			}
			for _, to := range targets {
				net.SetLink(m, to, simnet.WANLatency)
			}
		}
	}

	for i, m := range machines {
		first := uint64(10000 * (i + 1))
		if sys == sysBL {
			// JMeter feeds the client-side library over a local socket; the
			// library is the BFT client.
			bc := bftclient.New(bftclient.Config{
				Machine:       m,
				Clients:       clientsPerMach,
				FirstClientID: first,
				N:             cluster.Config.N,
				F:             cluster.Config.F,
				Directory:     cluster.Directory,
				Gen:           gen,
				Rec:           rec,
				ReadOpt:       true,
				Broadcast:     true,
				Rate:          ratePerClient,
				Timeout:       10 * time.Second,
			})
			net.Attach(m, bc)
			continue
		}
		lc := legacyclient.New(legacyclient.Config{
			Machine:       m,
			Clients:       clientsPerMach,
			FirstClientID: first,
			Replicas:      rotated(directConns, i),
			ServerPub:     serverPub,
			Gen:           gen,
			Rec:           rec,
			Rate:          ratePerClient,
			Timeout:       10 * time.Second,
			HTTP:          true,
		})
		net.Attach(m, lc)
	}

	net.Run(warmup)
	rec.Begin(net.Now())
	net.Run(warmup + measure)
	rec.End(net.Now())
	return rec.Snapshot(net.Now())
}
