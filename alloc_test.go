package troxy

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/workload"
)

// putGen cycles through prebuilt 128-byte PUTs, so the generator itself
// allocates nothing while the budget is measured.
type putGen struct {
	ops []workload.Op
	idx int
}

func newPutGen(keys, valueSize int) *putGen {
	g := &putGen{}
	value := bytes.Repeat([]byte{'v'}, valueSize)
	for k := 0; k < keys; k++ {
		g.ops = append(g.ops, workload.Op{Op: append([]byte(fmt.Sprintf("PUT key-%04d ", k)), value...)})
	}
	return g
}

func (g *putGen) Next(*rand.Rand) workload.Op {
	op := g.ops[g.idx%len(g.ops)]
	g.idx++
	return op
}

// writeAllocCeiling is the budget of TestWriteAllocBudget: heap allocations
// per completed 128-byte PUT, everything included (three replicas, their
// enclaves, the client machine and the simulator's own events — about ten of
// them). The tree measures 27.7, the same on every run; the ceiling is two
// above that, rounded up. The commit before reply batches went without a host
// MAC measured 28.1, the one before a Troxy call left no garbage (and the store
// shared its constant results) measured 38.1 on this harness, the one before
// Submit kept the request it is given 40.1, the one before crossings copied
// into memory their hop owns 64.1, the one before replies were batched 100.9,
// the one before the copy-once request path 222.6.
const writeAllocCeiling = 30

// TestWriteAllocBudget is the deterministic end-to-end allocation budget of
// the request path: the benchmark's write_small deployment (etroxy, batch
// 16 / 1 ms, depth 4, 32 closed-loop clients) on the single-goroutine
// simulator, counted in runtime.MemStats.Mallocs per completed operation.
// A copy that creeps back into a codec or a MAC shows here as a count, with
// no wall clock involved.
func TestWriteAllocBudget(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes what allocates (sync.Pool drops a share of what is put back)")
	}
	cl, err := NewCluster(ClusterConfig{
		Mode:          ETroxy,
		App:           app.NewStoreFactory(),
		Classify:      storeClassifier(),
		FastReads:     true,
		Seed:          7,
		BatchSize:     16,
		BatchDelay:    time.Millisecond,
		PipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(7, nil)
	cl.Attach(net)
	lc := legacyclient.New(legacyclient.Config{
		Machine: 100, Clients: 32, FirstClientID: 1000,
		Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
		Gen: newPutGen(1024, 128), Timeout: 5 * time.Second,
	})
	net.Attach(100, lc)

	net.Run(200 * time.Millisecond) // handshakes, first checkpoints, pools filled
	warm := lc.Done()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net.Run(net.Now() + 250*time.Millisecond)
	runtime.ReadMemStats(&after)
	ops := lc.Done() - warm
	if ops < 1000 {
		t.Fatalf("only %d operations completed in the measured window", ops)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("%.1f allocations per 128-byte write over %d operations (ceiling %d)", perOp, ops, writeAllocCeiling)
	if perOp > writeAllocCeiling {
		t.Errorf("%.1f allocations per write, budget is %d", perOp, writeAllocCeiling)
	}
}
