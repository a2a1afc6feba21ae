package legacyclient

import (
	"math/rand"
	"net"
	"testing"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

type scriptGen struct {
	ops []workload.Op
	i   int
}

func (g *scriptGen) Next(*rand.Rand) workload.Op {
	if g.i >= len(g.ops) {
		return g.ops[len(g.ops)-1]
	}
	op := g.ops[g.i]
	g.i++
	return op
}

func kvCluster(t *testing.T) (*troxy.Cluster, *simnet.Network) {
	t.Helper()
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:              troxy.ETroxy,
		App:               app.NewStoreFactory(),
		Classify:          app.NewStore().IsRead,
		Seed:              9,
		ViewChangeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(9, nil)
	net.SetDefaultLink(simnet.FixedLatency(time.Millisecond))
	cluster.Attach(net)
	return cluster, net
}

func TestMultipleLogicalClientsShareOneMachine(t *testing.T) {
	cluster, net := kvCluster(t)
	rec := workload.NewRecorder()
	rec.Begin(0)
	m := New(Config{
		Machine:       100,
		Clients:       8,
		FirstClientID: 1000,
		Replicas:      cluster.ReplicaIDs(),
		ServerPub:     cluster.ServerPub,
		Gen:           workload.KVGen{Keys: 4, ReadRatio: 0.5},
		Rec:           rec,
		MaxOps:        5,
		Timeout:       2 * time.Second,
	})
	net.Attach(100, m)
	net.Run(60 * time.Second)
	if m.Done() != 40 {
		t.Fatalf("done = %d/40", m.Done())
	}
	if rec.Snapshot(net.Now()).Count != 40 {
		t.Error("recorder missed completions")
	}
}

func TestPacedClientsApproximateRate(t *testing.T) {
	cluster, net := kvCluster(t)
	rec := workload.NewRecorder()
	rec.Begin(0)
	m := New(Config{
		Machine:       100,
		Clients:       10,
		FirstClientID: 1000,
		Replicas:      cluster.ReplicaIDs(),
		ServerPub:     cluster.ServerPub,
		Gen:           workload.KVGen{Keys: 4, ReadRatio: 1},
		Rec:           rec,
		Rate:          20, // per client: 10 clients x 20/s = 200/s
		Timeout:       2 * time.Second,
	})
	net.Attach(100, m)
	net.Run(10 * time.Second)
	res := rec.Snapshot(net.Now())
	if res.OpsPerSec < 120 || res.OpsPerSec > 260 {
		t.Errorf("paced throughput = %.1f/s, want ≈200/s", res.OpsPerSec)
	}
}

func TestStopCeasesTraffic(t *testing.T) {
	cluster, net := kvCluster(t)
	m := New(Config{
		Machine: 100, Clients: 2, FirstClientID: 1000,
		Replicas: cluster.ReplicaIDs(), ServerPub: cluster.ServerPub,
		Gen: workload.KVGen{Keys: 2, ReadRatio: 0}, Timeout: time.Second,
	})
	net.Attach(100, m)
	net.Run(100 * time.Millisecond)
	m.Stop()
	done := m.Done()
	net.Run(5 * time.Second)
	// A couple of in-flight ops may still land; traffic must not continue.
	if m.Done() > done+2 {
		t.Errorf("ops continued after Stop: %d -> %d", done, m.Done())
	}
}

// Stop, Done and Unsettled are for whoever runs the machine, which under
// realnet is another goroutine than the handler's. Run with -race: the test
// polls them while the router drives fast-commit traffic.
func TestProgressAccessorsFromOutsideTheHandler(t *testing.T) {
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:         troxy.ETroxy,
		App:          app.NewStoreFactory(),
		Classify:     app.NewStore().IsRead,
		CommitLevels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := realnet.NewRouter()
	defer router.Close()
	cluster.Attach(router)
	m := New(Config{
		Machine: 100, Clients: 4, FirstClientID: 1000,
		Replicas: cluster.ReplicaIDs(), ServerPub: cluster.ServerPub,
		Gen: workload.KVGen{Keys: 8, ReadRatio: 0.5}, FastCommit: true,
	})
	router.Attach(100, m)

	const clients, want = 4, 200
	deadline := time.Now().Add(30 * time.Second)
	for m.Done() < want {
		if u := m.Unsettled(); u < 0 {
			t.Fatalf("Unsettled = %d", u)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d operations after 30 s", m.Done(), want)
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	atStop := m.Done()
	for m.Unsettled() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if u := m.Unsettled(); u != 0 {
		t.Errorf("%d speculations never settled", u)
	}
	router.Close() // waits for the handler goroutines
	// Only the operation a client had in flight at Stop may still complete.
	if done := m.Done(); done > atStop+clients {
		t.Errorf("%d operations completed after Stop, by %d clients", done-atStop, clients)
	}
}

func TestTCPClientAgainstRealCluster(t *testing.T) {
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:     troxy.ETroxy,
		App:      app.NewStoreFactory(),
		Classify: app.NewStore().IsRead,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := realnet.NewRouter()
	defer router.Close()
	cluster.Attach(router)

	var addrs []string
	var gws []*realnet.Gateway
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		gw := realnet.NewGateway(router, msg.NodeID(i), msg.NodeID(5000+i*1000))
		go gw.Serve(l)
		gws = append(gws, gw)
		addrs = append(addrs, l.Addr().String())
	}
	defer func() {
		for _, gw := range gws {
			gw.Close()
		}
	}()

	client, err := Dial(addrs, cluster.ServerPub, 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if res, err := client.Request([]byte("PUT a 1"), false); err != nil || string(res) != "OK" {
		t.Fatalf("PUT: %q, %v", res, err)
	}
	if res, err := client.Request([]byte("GET a"), true); err != nil || string(res) != "VALUE 1" {
		t.Fatalf("GET: %q, %v", res, err)
	}

	// Crash the connected replica: the client fails over transparently and
	// the retransmitted request deduplicates.
	router.Crash(0)
	if res, err := client.Request([]byte("PUT a 2"), false); err != nil || string(res) != "OK" {
		t.Fatalf("PUT after crash: %q, %v", res, err)
	}
	router.Restore(0)
	// The failed attempts above grew the retry backoff; a successful request
	// must reset it.
	if res, err := client.Request([]byte("GET a"), true); err != nil || string(res) != "VALUE 2" {
		t.Fatalf("GET after failover: %q, %v", res, err)
	}
	if client.backoff != 0 {
		t.Errorf("backoff after successful request = %v, want 0", client.backoff)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(nil, nil, 1, 0); err == nil {
		t.Error("Dial with no addresses succeeded")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, nil, 1, 200*time.Millisecond); err == nil {
		t.Error("Dial to a dead port succeeded")
	}
}
