package faultplane_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestInjectorDeterminism replays the same judgment sequence against two
// injectors with the same seed and plan; decisions must be identical. A
// third injector with a different seed must diverge somewhere.
func TestInjectorDeterminism(t *testing.T) {
	plan := faultplane.Plan{Links: []faultplane.LinkFault{{
		From: faultplane.Wildcard, To: faultplane.Wildcard,
		End:   ms(1000),
		DropP: 0.3, DupP: 0.3, CorruptP: 0.3, Jitter: ms(5),
	}}}
	a := faultplane.NewInjector(42, plan)
	b := faultplane.NewInjector(42, plan)
	c := faultplane.NewInjector(43, plan)
	diverged := false
	for i := 0; i < 200; i++ {
		now := ms(i)
		from, to := msg.NodeID(i%3), msg.NodeID((i+1)%3)
		da := a.Judge(now, from, to, msg.KindPrepare)
		db := b.Judge(now, from, to, msg.KindPrepare)
		if da != db {
			t.Fatalf("same seed diverged at step %d: %+v vs %+v", i, da, db)
		}
		if dc := c.Judge(now, from, to, msg.KindPrepare); dc != da {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical decision streams")
	}
}

func TestLinkFaultWindow(t *testing.T) {
	in := faultplane.NewInjector(1, faultplane.Plan{Links: []faultplane.LinkFault{{
		From: 1, To: 2, Start: ms(100), End: ms(200), DropP: 1,
	}}})
	if d := in.Judge(ms(50), 1, 2, msg.KindCommit); d.Drop {
		t.Error("dropped before the window")
	}
	if d := in.Judge(ms(150), 1, 2, msg.KindCommit); !d.Drop {
		t.Error("not dropped inside the window")
	}
	if d := in.Judge(ms(150), 2, 1, msg.KindCommit); d.Drop {
		t.Error("dropped on the reverse link")
	}
	if d := in.Judge(ms(200), 1, 2, msg.KindCommit); d.Drop {
		t.Error("dropped at the window end (End is exclusive)")
	}
}

func TestPartitionSymmetricAndOneWay(t *testing.T) {
	sym := faultplane.NewInjector(1, faultplane.Plan{Partitions: []faultplane.Partition{{
		Start: ms(10), Heal: ms(20), A: []msg.NodeID{0}, B: []msg.NodeID{1, 2},
	}}})
	if d := sym.Judge(ms(15), 0, 2, msg.KindPrepare); !d.Drop {
		t.Error("A->B not blocked")
	}
	if d := sym.Judge(ms(15), 2, 0, msg.KindPrepare); !d.Drop {
		t.Error("B->A not blocked under symmetric partition")
	}
	if d := sym.Judge(ms(15), 1, 2, msg.KindPrepare); d.Drop {
		t.Error("intra-side traffic blocked")
	}
	if d := sym.Judge(ms(25), 0, 2, msg.KindPrepare); d.Drop {
		t.Error("blocked after heal")
	}

	asym := faultplane.NewInjector(1, faultplane.Plan{Partitions: []faultplane.Partition{{
		Start: ms(10), Heal: ms(20), A: []msg.NodeID{0}, B: []msg.NodeID{2}, OneWay: true,
	}}})
	if d := asym.Judge(ms(15), 0, 2, msg.KindPrepare); !d.Drop {
		t.Error("A->B not blocked under one-way partition")
	}
	if d := asym.Judge(ms(15), 2, 0, msg.KindPrepare); d.Drop {
		t.Error("B->A blocked under one-way partition")
	}
}

func TestRandomPlanDeterminism(t *testing.T) {
	reps := []msg.NodeID{0, 1, 2}
	cls := []msg.NodeID{100, 101}
	p1 := faultplane.RandomPlan(7, reps, cls, time.Second)
	p2 := faultplane.RandomPlan(7, reps, cls, time.Second)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same seed drew different plans:\n%v\n%v", p1, p2)
	}
	distinct := false
	for seed := int64(8); seed < 16; seed++ {
		if !reflect.DeepEqual(p1, faultplane.RandomPlan(seed, reps, cls, time.Second)) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("eight different seeds all drew the same plan")
	}
	if end := p1.End(); end == 0 || end > time.Second {
		t.Errorf("plan end = %v, want within (0, 1s]: %v", end, p1)
	}
}

// echoNode counts deliveries.
type echoNode struct{ got int }

func (e *echoNode) OnStart(node.Env)                   {}
func (e *echoNode) OnEnvelope(node.Env, *msg.Envelope) { e.got++ }
func (e *echoNode) OnTimer(node.Env, node.TimerKey)    {}

// burstNode sends n envelopes to a peer on start.
type burstNode struct {
	to msg.NodeID
	n  int
}

func (b *burstNode) OnStart(env node.Env) {
	for i := 0; i < b.n; i++ {
		env.Send(msg.Seal(env.Self(), b.to, &msg.ChannelData{ConnID: uint64(i)}))
	}
}
func (b *burstNode) OnEnvelope(node.Env, *msg.Envelope) {}
func (b *burstNode) OnTimer(node.Env, node.TimerKey)    {}

// TestSimnetFaultHook exercises the simulator-side interceptor: total drop
// loses everything (counted), duplication doubles delivery, and the same
// seed yields the same counters.
func TestSimnetFaultHook(t *testing.T) {
	testutil.CheckGoroutines(t)
	run := func(seed int64, plan faultplane.Plan) simnet.Stats {
		net := simnet.New(9, nil)
		net.SetFault(faultplane.NewInjector(seed, plan))
		recv := &echoNode{}
		net.Attach(2, recv)
		net.Attach(1, &burstNode{to: 2, n: 10})
		net.Run(time.Hour)
		return net.Stats()
	}

	drop := faultplane.Plan{Links: []faultplane.LinkFault{{From: 1, To: 2, DropP: 1}}}
	if st := run(1, drop); st.Dropped != 10 || st.Delivered != 0 {
		t.Errorf("total drop: %+v", st)
	}

	dup := faultplane.Plan{Links: []faultplane.LinkFault{{From: 1, To: 2, DupP: 1}}}
	if st := run(1, dup); st.Duplicated != 10 || st.Delivered != 20 {
		t.Errorf("total duplication: %+v", st)
	}

	mixed := faultplane.Plan{Links: []faultplane.LinkFault{{
		From: 1, To: 2, DropP: 0.4, DupP: 0.4, CorruptP: 0.4, Jitter: ms(3),
	}}}
	if a, b := run(5, mixed), run(5, mixed); a != b {
		t.Errorf("same seed, different stats: %+v vs %+v", a, b)
	}
}

func mkOp(client, seq uint64, inv, resp int, op, result string) faultplane.Op {
	return faultplane.Op{
		Client: client, Seq: seq,
		Invoke: ms(inv), Respond: ms(resp),
		Operation: []byte(op), Result: []byte(result),
	}
}

func TestCheckLinearizablePositive(t *testing.T) {
	hist := []faultplane.Op{
		mkOp(1, 1, 0, 10, "PUT k v1", "OK"),
		mkOp(2, 1, 5, 25, "GET k", "VALUE v2"), // overlaps the second PUT: may order after it
		mkOp(1, 2, 12, 22, "PUT k v2", "OK"),
		mkOp(2, 2, 30, 40, "DEL k", "OK"),
		mkOp(1, 3, 45, 50, "GET k", "NOTFOUND"),
		mkOp(3, 1, 0, 60, "PUT j x", "OK"), // other key, fully concurrent
		mkOp(3, 2, 65, 70, "GET j", "VALUE x"),
	}
	if err := faultplane.CheckLinearizable(hist); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
}

func TestCheckLinearizableStaleRead(t *testing.T) {
	hist := []faultplane.Op{
		mkOp(1, 1, 0, 10, "PUT k v1", "OK"),
		mkOp(1, 2, 20, 30, "PUT k v2", "OK"),
		// Strictly after the second PUT responded, yet reads the old value:
		// the canonical stale-fast-read anomaly.
		mkOp(2, 1, 40, 50, "GET k", "VALUE v1"),
	}
	if err := faultplane.CheckLinearizable(hist); err == nil {
		t.Fatal("stale read accepted")
	}
}

func TestCheckLinearizableCorruptResult(t *testing.T) {
	hist := []faultplane.Op{
		mkOp(1, 1, 0, 10, "PUT k v1", "OK#byz"),
	}
	if err := faultplane.CheckLinearizable(hist); err == nil {
		t.Fatal("corrupted result accepted")
	}
	hist = []faultplane.Op{
		mkOp(1, 1, 0, 10, "PUT k v1", "OK"),
		mkOp(1, 2, 20, 30, "GET k", "VALUE v1#byz"),
	}
	if err := faultplane.CheckLinearizable(hist); err == nil {
		t.Fatal("corrupted read result accepted")
	}
}

func TestCheckLinearizableLostUpdate(t *testing.T) {
	hist := []faultplane.Op{
		mkOp(1, 1, 0, 10, "PUT k v1", "OK"),
		mkOp(2, 1, 20, 30, "DEL k", "NOTFOUND"), // after the PUT responded, DEL must find it
	}
	if err := faultplane.CheckLinearizable(hist); err == nil {
		t.Fatal("lost update accepted")
	}
}

// TestCheckLinearizableLongHistory is the regression for the memo key: 62
// strictly sequential operations on one key, 15 distinct values, then only
// reads. Packed as mask×16+state the visited pairs after 60 and after 61
// operations are the same integer modulo 2^64, and the checker called this
// (trivially linearizable) history a violation.
func TestCheckLinearizableLongHistory(t *testing.T) {
	var hist []faultplane.Op
	for i := 0; i < 62; i++ {
		op, result := fmt.Sprintf("PUT k v%d", i), "OK"
		if i >= 15 {
			op, result = "GET k", "VALUE v14"
		}
		hist = append(hist, mkOp(1, uint64(i+1), 10*i, 10*i+5, op, result))
	}
	if err := faultplane.CheckLinearizable(hist); err != nil {
		t.Fatalf("sequential 62-op history rejected: %v", err)
	}
	// The same history with a stale read at the end must still fail.
	hist[61].Result = []byte("VALUE v13")
	if err := faultplane.CheckLinearizable(hist); err == nil {
		t.Fatal("stale read at the end of a 62-op history accepted")
	}
}

// A fork of a wrongly executing application executes as wrongly, on a state
// of its own.
func TestWrongExecFork(t *testing.T) {
	w := &faultplane.WrongExec{Inner: app.NewStore(), Marker: "!"}
	w.Execute([]byte("PUT k before"))
	fork := w.Fork()
	w.Execute([]byte("PUT k original"))
	if got := string(fork.Execute([]byte("GET k"))); got != "VALUE before!" {
		t.Errorf("fork read %q, want the state it was taken in, marked", got)
	}
	fork.Execute([]byte("PUT k fork"))
	if got := string(w.Execute([]byte("GET k"))); got != "VALUE original!" {
		t.Errorf("original read %q after a write to the fork", got)
	}
}

// TestCopyEnvelope: CopyEnvelope leaves the envelope pointing at copies
// behind what the writer held — the same bytes, none shared with the sender's,
// the body cap-limited so nothing appended to it reaches the MAC — and keeps
// a missing body or MAC missing.
func TestCopyEnvelope(t *testing.T) {
	body, mac := []byte("the body"), []byte("the mac")
	e := &msg.Envelope{From: 1, To: 2, Kind: msg.KindCommit, Body: body, MAC: mac}
	w := wire.NewWriter(0) // too small: the copy grows it
	w.Raw([]byte("held"))
	faultplane.CopyEnvelope(w, e)
	copy(body, "XXXXXXXX")
	copy(mac, "YYYYYYY")
	if string(e.Body) != "the body" || string(e.MAC) != "the mac" || cap(e.Body) != len(e.Body) {
		t.Errorf("copied envelope body %q (cap %d), MAC %q", e.Body, cap(e.Body), e.MAC)
	}
	if string(w.Bytes()) != "heldthe bodythe mac" {
		t.Errorf("writer holds %q", w.Bytes())
	}
	bare := &msg.Envelope{Kind: msg.KindCommit}
	faultplane.CopyEnvelope(w, bare)
	if bare.Body != nil || bare.MAC != nil {
		t.Errorf("an envelope without body or MAC came back with %q, %q", bare.Body, bare.MAC)
	}
}
