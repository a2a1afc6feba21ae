package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
)

// sendCounter is a fault judge that alters nothing and counts the messages
// replicas send: the untraced side of the fidelity comparison.
type sendCounter struct{ sent atomic.Int64 }

func (c *sendCounter) Judge(_ time.Duration, from, _ msg.NodeID, _ msg.Kind) faultplane.Decision {
	if from >= 0 && int(from) < numReplicas {
		c.sent.Add(1)
	}
	return faultplane.Decision{}
}

// The traced cluster is assembled by this package, not by troxy.NewCluster;
// it must do the same work. On a fixed number of operations the ecalls and
// the messages per operation agree within 2%.
func TestTracedClusterDoesSameWork(t *testing.T) {
	testutil.CheckGoroutines(t)
	spec, _ := workloadByName("write_small")
	const opsPerClient = 300

	judge := &sendCounter{}
	plain, err := runRep(repConfig{spec: spec, seed: 1, maxOps: opsPerClient, judge: judge})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRep(repConfig{spec: spec, seed: 1, maxOps: opsPerClient, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*repResult{"plain": plain, "traced": traced} {
		if r.counters.ops != numClients*opsPerClient || r.failed != 0 {
			t.Fatalf("%s: %d operations completed, %d failed, want %d and 0", name, r.counters.ops, r.failed, numClients*opsPerClient)
		}
	}
	within := func(what string, a, b float64) {
		t.Helper()
		if a <= 0 || math.Abs(a-b) > 0.02*a {
			t.Errorf("%s: untraced %.4f, traced %.4f — more than 2%% apart", what, a, b)
		}
	}
	within("enclave.ecalls_per_op",
		plain.counters.metrics(0)["enclave.ecalls_per_op"],
		traced.counters.metrics(0)["enclave.ecalls_per_op"])
	within("replica.msgs_per_op",
		float64(judge.sent.Load())/float64(plain.counters.ops),
		traceMetrics(traced)["replica.msgs_per_op"])
}

// The sums a traced run promises, and the trace file it writes.
func TestTraceSumsAndFile(t *testing.T) {
	testutil.CheckGoroutines(t)
	spec, _ := workloadByName("mixed_zipf")
	dir := t.TempDir()
	res, err := runTraced(spec, 1, 1.2, dir)
	if err != nil {
		t.Fatal(err)
	}
	values := res.values
	if res.failed != 0 {
		t.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	if err := checkTraceSums(values); err != nil {
		t.Error(err)
	}
	if r := values["trace.overhead_ratio"]; !(r > 0) {
		t.Errorf("trace.overhead_ratio = %v", r)
	}
	// With the primitives the per-layer set is exactly the declared one.
	if !testing.Short() {
		for k, v := range runPrimitives() {
			values[k] = v
		}
		if _, missing := fill(perLayer, values); missing != "" || len(values) != len(perLayer) {
			t.Errorf("per-layer set has %d metrics, %d declared (missing %q)", len(values), len(perLayer), missing)
		}
	}

	data, err := os.ReadFile(dir + "/trace-mixed_zipf.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint32]span, len(tf.Spans))
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range tf.Spans {
		if s.End < s.Start || s.Name == "" {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok || p.Node != s.Node || p.Start > s.Start || p.End < s.End {
			t.Fatalf("span %+v is not inside its parent %+v", s, p)
		}
	}
	if len(tf.Spans) == 0 || children == 0 {
		t.Errorf("trace file holds %d spans, %d with a parent", len(tf.Spans), children)
	}
}

// The application decorator is piecewise exactly when the application is, and
// its iterator yields the application's own snapshot.
func TestTracedAppKeepsIncremental(t *testing.T) {
	var phase atomic.Int32
	nt := newTracer(&phase).replica(0)

	store := app.NewStore()
	store.Execute([]byte("PUT a 1"))
	store.Execute([]byte("PUT b 2"))
	inc, ok := newTracedApp(store, nt).(app.Incremental)
	if !ok {
		t.Fatal("decorated Store does not satisfy app.Incremental")
	}
	var got []byte
	for it := inc.SnapshotIter(8); ; {
		piece, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, piece...)
	}
	if !bytes.Equal(got, store.Snapshot()) {
		t.Error("decorated iterator does not yield the store's snapshot")
	}
	sink := inc.RestoreSink()
	if err := sink.Write(got); err != nil {
		t.Fatal(err)
	}
	if err := sink.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(nt.stack) != 0 {
		t.Errorf("%d spans left open", len(nt.stack))
	}

	if _, ok := newTracedApp(plainApp{store}, nt).(app.Incremental); ok {
		t.Error("decorating a non-incremental application made it incremental")
	}
}

// plainApp hides Store's piecewise methods.
type plainApp struct{ app.Application }

// Self time is a span's duration less its children's, and a handler invocation
// that contained a snapshot counts as a checkpoint stall.
func TestSelfTimeAndStall(t *testing.T) {
	var phase atomic.Int32
	phase.Store(phaseMeasure)
	n := newTracer(&phase).replica(1)
	name := func() string { return "x" }

	n.begin(layerReplica, name, 0, 0)
	n.begin(layerTroxy, name, 0, 0)
	time.Sleep(2 * time.Millisecond)
	n.end()
	n.begin(layerSnapshot, name, 0, 0)
	time.Sleep(2 * time.Millisecond)
	n.end()
	n.end()

	invocation := n.spans[0].End - n.spans[0].Start
	if total := n.self[layerReplica] + n.self[layerTroxy] + n.self[layerSnapshot]; total != invocation {
		t.Errorf("self times sum to %d ns, the invocation took %d ns", total, invocation)
	}
	if n.self[layerTroxy] < int64(2*time.Millisecond) || n.self[layerReplica] >= n.self[layerTroxy] {
		t.Errorf("self times: replica %d, troxy %d", n.self[layerReplica], n.self[layerTroxy])
	}
	if n.stallCount != 1 || n.stallNs != invocation {
		t.Errorf("stall: %d invocations, %d ns; want 1 and %d", n.stallCount, n.stallNs, invocation)
	}
	if len(n.spans) != 3 || n.spans[1].Parent != n.spans[0].ID || n.spans[2].Parent != n.spans[0].ID {
		t.Errorf("retained spans: %+v", n.spans)
	}
}
