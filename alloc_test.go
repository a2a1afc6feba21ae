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
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
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
// them). The tree measures 20.4, the same on every run; the ceiling is two
// above that, rounded up. The commit before ordering decoded into structs the
// replica owns (and the log entry held its batch, MAC and vouchers by value)
// measured 23.6 (ceiling 26), the one before an envelope's header was a value
// that Send copies 27.0 (ceiling 30), the one before the messages a
// Troxy tags were opened by value 27.3, the one before PREPARE and
// COMMIT went without a host MAC measured 27.7, the one before reply batches
// went without one 28.1, the one before a Troxy call left no garbage (and the store
// shared its constant results) measured 38.1 on this harness, the one before
// Submit kept the request it is given 40.1, the one before crossings copied
// into memory their hop owns 64.1, the one before replies were batched 100.9,
// the one before the copy-once request path 222.6.
const writeAllocCeiling = 23

// loneWriteAllocCeiling is the budget of TestLoneWriteAllocBudget: the same
// count with one client, so every batch holds one request and nothing of a
// sequence number's cost is shared. The tree measures 63.0, the same on every
// run (the commit before ordering decoded into structs the replica owns
// measured 88.1); the ceiling is two above that.
const loneWriteAllocCeiling = 65

// writeSmallSim is the benchmark's write_small deployment (etroxy, batch
// 16 / 1 ms, depth 4, closed-loop clients writing 128 bytes: 32 of them in
// the benchmark) on the single-goroutine simulator, run for 200 ms:
// handshakes done, first checkpoints taken, pools filled. Each replica's
// handler goes onto the network through wrap.
func writeSmallSim(t *testing.T, clients int, wrap func(node.Handler) node.Handler) (*simnet.Network, *legacyclient.Machine) {
	t.Helper()
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
	for i, r := range cl.Replicas {
		net.Attach(msg.NodeID(i), wrap(r))
	}
	lc := legacyclient.New(legacyclient.Config{
		Machine: 100, Clients: clients, FirstClientID: 1000,
		Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
		Gen: newPutGen(1024, 128), Timeout: 5 * time.Second,
	})
	net.Attach(100, lc)
	net.Run(200 * time.Millisecond)
	return net, lc
}

// TestWriteAllocBudget is the deterministic end-to-end allocation budget of
// the request path: writeSmallSim, counted in runtime.MemStats.Mallocs per
// completed operation. A copy that creeps back into a codec or a MAC shows
// here as a count, with no wall clock involved.
func TestWriteAllocBudget(t *testing.T) {
	writeAllocBudget(t, 32, 1000, writeAllocCeiling)
}

// TestLoneWriteAllocBudget is TestWriteAllocBudget with one client: a batch
// of one a sequence number, the load of the paper's fixed-rate HTTP
// experiment, where what a PREPARE/COMMIT round allocates is paid by every
// write.
func TestLoneWriteAllocBudget(t *testing.T) {
	writeAllocBudget(t, 1, 100, loneWriteAllocCeiling)
}

// writeAllocBudget measures allocations per write on writeSmallSim with the
// given number of clients over 250 ms, which must complete at least minOps
// writes, and fails above ceiling.
func writeAllocBudget(t *testing.T, clients, minOps, ceiling int) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes what allocates (sync.Pool drops a share of what is put back)")
	}
	net, lc := writeSmallSim(t, clients, func(h node.Handler) node.Handler { return h })
	warm := lc.Done()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net.Run(net.Now() + 250*time.Millisecond)
	runtime.ReadMemStats(&after)
	ops := lc.Done() - warm
	if ops < minOps {
		t.Fatalf("only %d operations completed in the measured window", ops)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("%.2f allocations per 128-byte write over %d operations of %d client(s) (ceiling %d)", perOp, ops, clients, ceiling)
	if perOp > float64(ceiling) {
		t.Errorf("%.2f allocations per write, budget is %d", perOp, ceiling)
	}
}

// writeMACCeiling is the budget of TestWriteMACBudget: MACs charged per
// completed 128-byte PUT across the three replicas — host MACs, Troxy tags
// and counter certificates alike, each computed or verified. The tree measures
// 9.9 (the parent of the change that took the host MAC off PREPARE and COMMIT
// measured 10.6), the same on every run; the ceiling is the measured count.
const writeMACCeiling = 9.9

// macCounter wraps a replica's handler and counts the ChargeMAC calls made
// through the env each invocation is handed.
type macCounter struct {
	node.Handler
	macs *int
}

func (h macCounter) OnStart(env node.Env) { h.Handler.OnStart(macEnv{env, h.macs}) }
func (h macCounter) OnEnvelope(env node.Env, e *msg.Envelope) {
	h.Handler.OnEnvelope(macEnv{env, h.macs}, e)
}
func (h macCounter) OnTimer(env node.Env, key node.TimerKey) {
	h.Handler.OnTimer(macEnv{env, h.macs}, key)
}

type macEnv struct {
	node.Env
	macs *int
}

func (e macEnv) Charge(p node.Profile, k node.ChargeKind, n int) {
	if k == node.ChargeMAC {
		*e.macs++
	}
	e.Env.Charge(p, k, n)
}

// TestWriteMACBudget is the MAC budget of the request path on the deployment
// of TestWriteAllocBudget: what the replicas charge the cost model as MACs
// per completed write. A MAC that returns to a message something else
// already authenticates shows here as a count.
func TestWriteMACBudget(t *testing.T) {
	macs := 0
	net, lc := writeSmallSim(t, 32, func(h node.Handler) node.Handler { return macCounter{h, &macs} })
	warm, before := lc.Done(), macs
	net.Run(net.Now() + 250*time.Millisecond)
	ops := lc.Done() - warm
	if ops < 1000 {
		t.Fatalf("only %d operations completed in the measured window", ops)
	}
	perOp := float64(macs-before) / float64(ops)
	t.Logf("%.2f MACs per 128-byte write over %d operations (ceiling %.1f)", perOp, ops, writeMACCeiling)
	if perOp > writeMACCeiling {
		t.Errorf("%.2f MACs per write, budget is %.1f", perOp, writeMACCeiling)
	}
}
