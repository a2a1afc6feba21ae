package troxy_test

// Benchmark harness: one Benchmark per table/figure of the paper's
// evaluation, each delegating to the corresponding experiment in
// internal/experiments (quick scale; run cmd/troxy-bench for full scale),
// plus one wall-clock run through the gateway. The primitives the cost model
// prices are timed per PR by bench/primitives.go.
//
//	go test -bench=. -benchmem
//	go run ./cmd/troxy-bench all        # full-scale reproduction

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/experiments"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// benchExperiment runs one evaluation experiment per iteration and dumps its
// tables with -v.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	opt := experiments.Options{Seed: 42, Quick: true}
	for i := 0; i < b.N; i++ {
		tables := exp.Run(opt)
		if testing.Verbose() {
			for _, t := range tables {
				t.Fprint(benchWriter{b})
			}
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = benchWriter{}

// BenchmarkTable1 regenerates Table I (read-optimization properties).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig6 regenerates Figure 6 (ordered writes, local network).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (ordered writes, WAN).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (read-only requests, local network).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (read-only requests, WAN).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (concurrency handling).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (HTTP service latency).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkBatching sweeps the leader's batch-size limit over ordered writes:
// larger batches must show higher ops/s than unbatched ordering (run with -v
// for the table, which also reports the certification amortization factor).
func BenchmarkBatching(b *testing.B) { benchExperiment(b, "batching") }

// BenchmarkEndToEndKV measures real (wall-clock) request latency through a
// full in-process cluster over the real runtime — the deployable library's
// own performance rather than the simulation's.
func BenchmarkEndToEndKV(b *testing.B) {
	endToEndKV(b, []byte("PUT bench v"), false)
}

// BenchmarkEndToEndKVRead is BenchmarkEndToEndKV reading the key one PUT
// wrote: after the first read has been ordered, the Troxies' caches answer,
// so every later one is a fast read.
func BenchmarkEndToEndKVRead(b *testing.B) {
	endToEndKV(b, []byte("GET bench"), true)
}

// endToEndKV runs b.N requests of op from one client through the gateway of
// replica 0, after one PUT of the key both benchmarks use.
func endToEndKV(b *testing.B, op []byte, read bool) {
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:      troxy.ETroxy,
		App:       app.NewStoreFactory(),
		Classify:  app.NewStore().IsRead,
		FastReads: read,
	})
	if err != nil {
		b.Fatal(err)
	}
	router := realnet.NewRouter()
	defer router.Close()
	cluster.Attach(router)

	l, err := netListen()
	if err != nil {
		b.Fatal(err)
	}
	gw := realnet.NewGateway(router, msg.NodeID(0), 5000)
	go gw.Serve(l)
	defer gw.Close()

	client, err := legacyclient.Dial([]string{l.Addr().String()}, cluster.ServerPub, 1, 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Request([]byte("PUT bench v"), false); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Request(op, read); err != nil {
			b.Fatal(err)
		}
	}
}

func netListen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// BenchmarkEndToEndKVBatched is the wall-clock benchmark's write_small shape
// on the real runtime: 32 logical clients on one client machine write 128-byte
// values over 1024 keys to a cluster that cuts a batch at 16 requests or
// 1 ms, four batches in flight, so writes share batches as they do there —
// what a profile of a lone client's writes (BenchmarkEndToEndKV), each of
// which cuts its own batch, cannot show. b.N operations are spread over the
// clients. `make allocs-top ALLOCS_BENCH=EndToEndKVBatched` profiles it.
func BenchmarkEndToEndKVBatched(b *testing.B) {
	const clients = 32
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:          troxy.ETroxy,
		App:           app.NewStoreFactory(),
		Classify:      app.NewStore().IsRead,
		FastReads:     true,
		BatchSize:     16,
		BatchDelay:    time.Millisecond,
		PipelineDepth: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	router := realnet.NewRouter()
	defer router.Close()
	cluster.Attach(router)

	perClient := (b.N + clients - 1) / clients
	m := legacyclient.New(legacyclient.Config{
		Machine: 100, Clients: clients, FirstClientID: 1000,
		Replicas: cluster.ReplicaIDs(), ServerPub: cluster.ServerPub,
		Gen: newCyclicPuts(1024, 128), Timeout: 10 * time.Second, MaxOps: perClient,
	})
	b.ResetTimer()
	router.Attach(100, m)
	deadline := time.Now().Add(time.Minute + time.Duration(b.N)*time.Millisecond)
	for m.Done() < clients*perClient {
		if time.Now().After(deadline) {
			b.Fatalf("%d of %d operations completed", m.Done(), clients*perClient)
		}
		time.Sleep(time.Millisecond)
	}
}

// cyclicPuts hands out prebuilt PUTs of its keys in turn, so the generator
// itself allocates nothing while a benchmark runs.
type cyclicPuts struct {
	ops  []workload.Op
	next int
}

func newCyclicPuts(keys, valueSize int) *cyclicPuts {
	g := &cyclicPuts{}
	value := strings.Repeat("v", valueSize)
	for k := range keys {
		g.ops = append(g.ops, workload.Op{Op: []byte(fmt.Sprintf("PUT key-%04d %s", k, value))})
	}
	return g
}

func (g *cyclicPuts) Next(*rand.Rand) workload.Op {
	op := g.ops[g.next%len(g.ops)]
	g.next++
	return op
}
