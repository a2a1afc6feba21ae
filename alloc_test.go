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

// readGen writes each of its keys once and from then on only reads them,
// round robin: once a key's first read has been ordered, the Troxies' caches
// hold its value and every later read of it is a fast read.
type readGen struct {
	puts *putGen
	gets []workload.Op
	idx  int
}

func newReadGen(keys, valueSize int) *readGen {
	g := &readGen{puts: newPutGen(keys, valueSize)}
	for k := 0; k < keys; k++ {
		g.gets = append(g.gets, workload.Op{Op: []byte(fmt.Sprintf("GET key-%04d", k)), Read: true})
	}
	return g
}

func (g *readGen) Next(r *rand.Rand) workload.Op {
	if g.puts.idx < len(g.puts.ops) {
		return g.puts.Next(r)
	}
	op := g.gets[g.idx%len(g.gets)]
	g.idx++
	return op
}

// writeAllocCeiling is the budget of TestWriteAllocBudget: heap allocations
// per completed 128-byte PUT, everything included (three replicas, their
// enclaves, the client machine and the simulator's own events — about ten of
// them). The tree measures 11.18, the same on every run; the ceiling is the
// least integer above that, so one more allocation a write fails it. The
// commit before the store overwrote a value nothing else holds in place
// measured 12.70 (ceiling 13), the one before ordering copied what it keeps
// into one slab per core (and an ecall lent its submits) 15.55 (ceiling 16),
// the one before Send copied the bytes it is lent (and senders stopped
// allocating bodies) 18.77 (ceiling 19), the one before an ecall
// lent its client records and a host MAC shared its body's allocation
// measured 20.43 (ceiling 23), the one before ordering
// decoded into structs the replica owns (and the log entry held its batch,
// MAC and vouchers by value) 23.6 (ceiling 26), the one before an envelope's
// header was a value that Send copies 27.0 (ceiling 30), the one before the
// messages a Troxy tags were opened by value 27.3, the one before PREPARE and
// COMMIT went without a host MAC measured 27.7, the one before reply batches
// went without one 28.1, the one before a Troxy call left no garbage (and the store
// shared its constant results) measured 38.1 on this harness, the one before
// Submit kept the request it is given 40.1, the one before crossings copied
// into memory their hop owns 64.1, the one before replies were batched 100.9,
// the one before the copy-once request path 222.6.
const writeAllocCeiling = 12.0

// loneWriteAllocCeiling is the budget of TestLoneWriteAllocBudget: the same
// count with one client, so every batch holds one request and nothing of a
// sequence number's cost is shared. The tree measures 49.04, and the ceiling
// sits half an allocation above that (the commit before ordering copied what
// it keeps into one slab per core measured 55.00, 55.06 when a collection
// emptied a writer pool mid-window, ceiling 55.5; the one before Send copied
// the bytes it is lent 62.04, ceiling 63; the one before an ecall lent its
// client records 63.04, ceiling 65; the one before ordering decoded into
// structs the replica owns 88.1).
const loneWriteAllocCeiling = 49.5

// fastReadAllocCeiling is the budget of TestFastReadAllocBudget: heap
// allocations per completed 128-byte fast read, counted as the write budgets
// count. The tree measures 9.00, the same on every run, and the ceiling sits
// half an allocation above that; the commit before Send copied the bytes it is
// lent (the query, the answer and the client's record were each an
// allocation) measured 13.00, ceiling 14, and the one before an ecall lent its
// client records and cache messages 16.00.
const fastReadAllocCeiling = 9.5

// writeSmallSim is the benchmark's write_small deployment (etroxy, batch
// 16 / 1 ms, depth 4, closed-loop clients writing 128 bytes: 32 of them in
// the benchmark) on the single-goroutine simulator, run for 200 ms:
// handshakes done, first checkpoints taken, pools filled. Each replica's
// handler goes onto the network through wrap.
func writeSmallSim(t *testing.T, clients int, wrap func(node.Handler) node.Handler) (*simnet.Network, *legacyclient.Machine) {
	t.Helper()
	_, net, lc := smallSim(t, clients, newPutGen(1024, 128), 0, wrap)
	return net, lc
}

// smallSim is writeSmallSim with the clients' operations drawn from gen and
// the Troxies' ProbeInterval set to probe (zero: the default).
func smallSim(t *testing.T, clients int, gen workload.Generator, probe time.Duration, wrap func(node.Handler) node.Handler) (*Cluster, *simnet.Network, *legacyclient.Machine) {
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
		ProbeInterval: probe,
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
		Gen: gen, Timeout: 5 * time.Second,
	})
	net.Attach(100, lc)
	net.Run(200 * time.Millisecond)
	return cl, net, lc
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
func writeAllocBudget(t *testing.T, clients, minOps int, ceiling float64) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes what allocates (sync.Pool drops a share of what is put back)")
	}
	net, lc := writeSmallSim(t, clients, func(h node.Handler) node.Handler { return h })
	perOp, ops := allocsPerOp(net, lc)
	if ops < minOps {
		t.Fatalf("only %d operations completed in the measured window", ops)
	}
	t.Logf("%.2f allocations per 128-byte write over %d operations of %d client(s) (ceiling %.1f)", perOp, ops, clients, ceiling)
	if perOp > ceiling {
		t.Errorf("%.2f allocations per write, budget is %.1f", perOp, ceiling)
	}
}

// allocsPerOp runs net for 250 ms more and returns the heap allocations per
// operation lc completed in that window, and how many it completed.
func allocsPerOp(net *simnet.Network, lc *legacyclient.Machine) (float64, int) {
	warm := lc.Done()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net.Run(net.Now() + 250*time.Millisecond)
	runtime.ReadMemStats(&after)
	ops := lc.Done() - warm
	return float64(after.Mallocs-before.Mallocs) / float64(max(ops, 1)), ops
}

// TestFastReadAllocBudget is the allocation budget of the fast read: the
// deployment of TestWriteAllocBudget, its 32 clients reading 128-byte values
// over 1024 keys that the warm-up wrote and read once each, so every read in
// the measured window is answered from the caches of f+1 Troxies — the query,
// the peer's answer and the client's record, with no ordering.
func TestFastReadAllocBudget(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes what allocates (sync.Pool drops a share of what is put back)")
	}
	// The first read of each key misses the caches, and so many misses in a
	// row switch fast reads off (the conflict monitor); a probe of 50 ms
	// switches them back on within the warm-up.
	cl, net, lc := smallSim(t, 32, newReadGen(1024, 128), 50*time.Millisecond, func(h node.Handler) node.Handler { return h })
	ordered := func() (n uint64) { // reads the caches did not answer
		for i := range cl.Replicas {
			st := cl.TroxyStats(i)
			n += st.VotesCompleted + st.FastReadFell + st.CacheMisses
		}
		return n
	}
	orderedBefore := ordered()
	perOp, ops := allocsPerOp(net, lc)
	if ops < 1000 {
		t.Fatalf("only %d operations completed in the measured window", ops)
	}
	if n := ordered() - orderedBefore; n != 0 {
		t.Fatalf("%d reads in the measured window missed, fell back or were ordered: the warm-up did not fill the caches", n)
	}
	t.Logf("%.2f allocations per 128-byte fast read over %d operations (ceiling %.1f)", perOp, ops, fastReadAllocCeiling)
	if perOp > fastReadAllocCeiling {
		t.Errorf("%.2f allocations per fast read, budget is %.1f", perOp, fastReadAllocCeiling)
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
