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
	"io"
	"net"
	"testing"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/experiments"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
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
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:     troxy.ETroxy,
		App:      app.NewStoreFactory(),
		Classify: app.NewStore().IsRead,
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

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Request([]byte("PUT bench v"), false); err != nil {
			b.Fatal(err)
		}
	}
}

func netListen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
