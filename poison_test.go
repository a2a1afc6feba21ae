package troxy

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/bftclient"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/replica"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// proposal is one PREPARE a replica sent, as the retention test compares
// them: where it was proposed and what it bound.
type proposal struct {
	view, seq uint64
	reqs      int
	digest    msg.Digest
}

func (p proposal) String() string {
	return fmt.Sprintf("v%d/s%d:%d×%s", p.view, p.seq, p.reqs, p.digest.Short())
}

// lending says what a retention run overwrites behind a node's back.
type lending struct {
	// delivered: every envelope a node is handed — replica or client
	// machine — is a private copy whose body, MAC and header are overwritten
	// as soon as the handler returns (lentEnvelopes).
	delivered bool
	// sent: every envelope a node hands to Send reaches the runtime as a
	// private copy whose body and MAC are overwritten as soon as Send returns
	// (lentSends).
	sent bool
	// decoded: the structs a replica decodes ordering messages into are
	// overwritten as soon as its handler returns (poisonedDecodes).
	decoded bool
}

// lentEnvelopes wraps a node the way a runtime that recycles what it delivers
// does: every envelope is delivered as a private copy whose body, MAC and
// header are overwritten as soon as the handler returns (when poison is set).
// It also records the PREPAREs a replica sends.
type lentEnvelopes struct {
	inner     node.Handler
	poison    bool
	proposals *[]proposal
}

type tapEnv struct {
	node.Env
	proposals *[]proposal
}

func (e tapEnv) Send(env *msg.Envelope) {
	if env.Kind == msg.KindPrepare && env.To == (env.From+1)%3 { // one recipient's copy per broadcast
		if m, err := faultplane.CloneEnvelope(env).Open(); err == nil {
			p := m.(*msg.Prepare)
			*e.proposals = append(*e.proposals, proposal{p.View, p.Seq, p.Batch.Len(), p.Batch.Digest()})
		}
	}
	e.Env.Send(env)
}

func (l *lentEnvelopes) OnStart(env node.Env) { l.inner.OnStart(tapEnv{env, l.proposals}) }
func (l *lentEnvelopes) OnTimer(env node.Env, key node.TimerKey) {
	l.inner.OnTimer(tapEnv{env, l.proposals}, key)
}
func (l *lentEnvelopes) OnEnvelope(env node.Env, e *msg.Envelope) {
	lent := faultplane.CloneEnvelope(e)
	l.inner.OnEnvelope(tapEnv{env, l.proposals}, lent)
	if l.poison {
		for i := range lent.Body {
			lent.Body[i] = 0xA5
		}
		for i := range lent.MAC {
			lent.MAC[i] = 0xA5
		}
		// The header is the handler's for the invocation only, too.
		*lent = msg.Envelope{From: msg.NoNode, To: msg.NoNode, Kind: msg.Kind(0xA5), Body: lent.Body, MAC: lent.MAC}
	}
}

// lentSends wraps a node the way a sender that reuses its envelope and its
// buffers at once would: every envelope the node hands to Send goes to the
// runtime as a private copy whose body and MAC bytes are overwritten as soon
// as Send returns (the node's own stay as they are: it may send them again,
// as a broadcast does). The header stays, so a runtime that kept the copy or
// its bytes rather than copying them would deliver it, but the body and MAC
// it would deliver are 0x5A bytes no receiver's check accepts.
type lentSends struct{ inner node.Handler }

type overwritingEnv struct{ node.Env }

func (e overwritingEnv) Send(env *msg.Envelope) {
	lent := faultplane.CloneEnvelope(env)
	e.Env.Send(lent)
	for _, b := range [][]byte{lent.Body, lent.MAC} {
		for i := range b {
			b[i] = 0x5A
		}
	}
}

func (l lentSends) OnStart(env node.Env) { l.inner.OnStart(overwritingEnv{env}) }
func (l lentSends) OnEnvelope(env node.Env, e *msg.Envelope) {
	l.inner.OnEnvelope(overwritingEnv{env}, e)
}
func (l lentSends) OnTimer(env node.Env, key node.TimerKey) {
	l.inner.OnTimer(overwritingEnv{env}, key)
}

// poisonedDecodes wraps a replica and overwrites the PREPARE, COMMIT and
// FORWARD it decodes ordering messages into (its prep, com and fwd, reached
// by reflection: they are the replica's own) as soon as each delivery returns:
// junk views, sequence numbers, digests and certificates, and a junk request
// in every slot of the PREPARE's request array, which the next PREPARE is
// decoded into. The core copies what it keeps of a delivered ordering message,
// so none of it may show.
type poisonedDecodes struct{ *replica.Replica }

func (p poisonedDecodes) OnEnvelope(env node.Env, e *msg.Envelope) {
	p.Replica.OnEnvelope(env, e)
	v := reflect.ValueOf(p.Replica).Elem()
	field := func(name string) any {
		f := v.FieldByName(name)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Interface()
	}
	prep, com, fwd := field("prep").(*msg.Prepare), field("com").(*msg.Commit), field("fwd").(*msg.Forward)
	cert := msg.CounterCert{Replica: 1, Counter: 0xA5A5, Value: 0xA5A5, MAC: bytes.Repeat([]byte{0xA5}, 32)}
	junk := msg.OrderRequest{Origin: 1, Client: 0xA5A5, ClientSeq: 0xA5A5, Flags: 0xA5, Op: []byte("PUT junk junk")}
	reqs := prep.Batch.Reqs[:cap(prep.Batch.Reqs)]
	for i := range reqs {
		reqs[i] = junk
	}
	prep.View, prep.Seq, prep.Cert = 0xA5A5, 0xA5A5, cert
	*com = msg.Commit{View: 0xA5A5, Seq: 0xA5A5, BatchDigest: msg.DigestOf([]byte("junk")), Cert: cert}
	fwd.Req = junk
}

// dropNthPrepare loses one whole PREPARE broadcast of the initial leader: the
// batches behind it in the pipeline are accepted on their lanes but cannot
// execute, ordering stalls, and the view change that follows has prepared
// entries to carry over and re-propose. Every envelope it does not drop it
// hands to then, if set.
type dropNthPrepare struct {
	nth, seen int
	then      faultplane.Judge
}

func (d *dropNthPrepare) Judge(now time.Duration, from, to msg.NodeID, kind msg.Kind) faultplane.Decision {
	if kind == msg.KindPrepare && from == 0 {
		d.seen++
		if (d.seen-1)/2 == d.nth {
			return faultplane.Decision{Drop: true}
		}
	}
	if d.then == nil {
		return faultplane.Decision{}
	}
	return d.then.Judge(now, from, to, kind)
}

// delayAndDuplicate delays every envelope by up to 3 ms, which reorders them,
// and duplicates one in ten: what makes a runtime hold an envelope after its
// Send has returned.
var delayAndDuplicate = faultplane.Plan{Links: []faultplane.LinkFault{{
	From: faultplane.Wildcard, To: faultplane.Wildcard, DupP: 0.1, Jitter: 3 * time.Millisecond,
}}}

// delayAndOvertake is delayAndDuplicate with the links from the first two
// leaders to replica 2 slower by up to 20 ms more: there a PREPARE overtakes
// the one before it on its lane and is parked until that one arrives.
var delayAndOvertake = faultplane.Plan{Links: append([]faultplane.LinkFault{
	{From: 0, To: 2, Jitter: 20 * time.Millisecond},
	{From: 1, To: 2, Jitter: 20 * time.Millisecond},
}, delayAndDuplicate.Links...)}

// retentionRun drives writes and reads through a cluster whose replicas see
// and send envelopes lent as lend says, across a stalled pipeline, the view
// change it forces and the client retransmissions it causes. then judges
// every envelope the stall does not drop (nil: none is touched).
func retentionRun(t *testing.T, mode Mode, lend lending, then faultplane.Judge) (proposals []proposal, state msg.Digest, hist []faultplane.Op) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Mode:               mode,
		App:                app.NewStoreFactory(),
		Classify:           storeClassifier(),
		FastReads:          true,
		Seed:               23,
		CheckpointInterval: 1 << 20, // the log keeps every entry: nothing is settled by a checkpoint
		ViewChangeTimeout:  400 * time.Millisecond,
		TickInterval:       20 * time.Millisecond,
		QueryTimeout:       150 * time.Millisecond,
		BatchSize:          2,
		BatchDelay:         time.Millisecond,
		PipelineDepth:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(23, nil)
	net.SetDefaultLink(simnet.FixedLatency(2 * time.Millisecond))
	attach := func(id msg.NodeID, h node.Handler) {
		if lend.sent {
			h = lentSends{h}
		}
		net.Attach(id, h)
	}
	for i, r := range cl.Replicas {
		var h node.Handler = r
		if lend.decoded {
			h = poisonedDecodes{r}
		}
		attach(msg.NodeID(i), &lentEnvelopes{inner: h, poison: lend.delivered, proposals: &proposals})
	}
	net.SetFault(&dropNthPrepare{nth: 3, then: then})

	history := &faultplane.History{}
	const machines, perMachine, opsPerClient = 2, 4, 6
	var clients []interface{ Done() int }
	for i := 0; i < machines; i++ {
		if mode == Baseline {
			// BFT clients talk to the leader themselves: their requests reach
			// ordering through replica.onBFTRequest, decoded by view.
			bc := bftclient.New(bftclient.Config{
				Machine:       msg.NodeID(100 + i),
				Clients:       perMachine,
				FirstClientID: uint64(1000 * (i + 1)),
				N:             3,
				F:             1,
				Directory:     cl.Directory,
				Gen:           workload.KVGen{Keys: 4, ReadRatio: 0.3, ValueSize: 24},
				MaxOps:        opsPerClient,
				Timeout:       250 * time.Millisecond,
			})
			clients = append(clients, bc)
			attach(msg.NodeID(100+i), &lentEnvelopes{inner: bc, poison: lend.delivered, proposals: &proposals})
			continue
		}
		lc := legacyclient.New(legacyclient.Config{
			Machine:       msg.NodeID(100 + i),
			Clients:       perMachine,
			FirstClientID: uint64(1000 * (i + 1)),
			Replicas:      rotatedIDs(cl.ReplicaIDs(), i),
			ServerPub:     cl.ServerPub,
			Gen:           workload.KVGen{Keys: 4, ReadRatio: 0.3, ValueSize: 24},
			MaxOps:        opsPerClient,
			Timeout:       250 * time.Millisecond, // shorter than the view change: clients retransmit into it
			Observe:       history.Observe,
		})
		clients = append(clients, lc)
		attach(msg.NodeID(100+i), &lentEnvelopes{inner: lc, poison: lend.delivered, proposals: &proposals})
	}
	net.Run(60 * time.Second)

	for i, lc := range clients {
		if got := lc.Done(); got != perMachine*opsPerClient {
			t.Fatalf("machine %d completed %d/%d operations", i, got, perMachine*opsPerClient)
		}
	}
	state = app.StateDigest(cl.App(0))
	for i := range cl.Replicas {
		if v := cl.Replicas[i].Core().View(); v == 0 {
			t.Fatalf("replica %d never left view 0: the stall did not force a view change", i)
		}
		if d := app.StateDigest(cl.App(i)); d != state {
			t.Errorf("replica %d state %s differs from replica 0's %s", i, d.Short(), state.Short())
		}
	}
	return proposals, state, history.Ops()
}

// TestDeliveredEnvelopesAreNotRetained: a replica decodes what it is
// delivered by view and copies what it keeps — log entries, queued requests,
// buffered votes, the Troxy's vote state and cache, and in the baseline the
// operation of a client's request, which ordering keeps as it is submitted
// (the baseline has no client-observed history here: its run is compared by
// proposals and final state). A transport that
// overwrites every delivered envelope, header and bytes, after its handler
// returns must therefore change nothing: a batch re-proposed after a view change is, bit
// for bit, the batch first proposed at that sequence number, the history
// stays linearizable, and the whole run is the run without poisoning.
func TestDeliveredEnvelopesAreNotRetained(t *testing.T) {
	for _, mode := range []Mode{Baseline, CTroxy, ETroxy} {
		t.Run(mode.String(), func(t *testing.T) {
			clean, cleanState, cleanHist := retentionRun(t, mode, lending{}, nil)
			lent, lentState, hist := retentionRun(t, mode, lending{delivered: true}, nil)

			if err := faultplane.CheckLinearizable(hist); err != nil {
				t.Errorf("history over lent envelopes is not linearizable: %v", err)
			}
			// Every client read what it read in the clean run, at the same
			// instant: a result or key list the voter kept as a view of a
			// peer's reply batch would have been overwritten before its vote
			// completed.
			if len(hist) != len(cleanHist) {
				t.Fatalf("%d operations observed, %d in the clean run", len(hist), len(cleanHist))
			}
			for i, op := range hist {
				if want := cleanHist[i]; op.Client != want.Client || op.Seq != want.Seq || op.Respond != want.Respond ||
					!bytes.Equal(op.Result, want.Result) {
					t.Errorf("client %d op %d answered %q at %v, clean run %q at %v",
						op.Client, op.Seq, op.Result, op.Respond, want.Result, want.Respond)
				}
			}
			if lentState != cleanState {
				t.Errorf("final state %s, want the clean run's %s", lentState.Short(), cleanState.Short())
			}

			first := make(map[uint64]proposal) // the view-0 proposal of each sequence number
			reproposed := 0
			for _, p := range lent {
				orig, seen := first[p.seq]
				switch {
				case p.view == 0:
					first[p.seq] = p
				case seen && p.reqs > 0:
					reproposed++
					if p.digest != orig.digest {
						t.Errorf("seq %d re-proposed in view %d as batch %s, was %s in view 0",
							p.seq, p.view, p.digest.Short(), orig.digest.Short())
					}
				}
			}
			if reproposed == 0 {
				t.Error("no prepared batch was carried over the view change: the scenario lost its point")
			}
			if fmt.Sprint(lent) != fmt.Sprint(clean) {
				t.Errorf("proposals differ from the clean run's:\n lent  %v\n clean %v", lent, clean)
			}
		})
	}
}

// TestSentEnvelopesAreNotRetained is the send-side twin: Send copies the
// header, body and MAC it is handed, so a node may reuse its envelope and its
// buffers the moment Send returns (the replica and the client machine do),
// and a runtime that kept the sender's envelope or bytes instead — in a queued
// delivery, a delayed one or a duplicate — would deliver whatever the sender
// put there next. Every body and MAC handed to Send is overwritten once Send
// returns (lentSends), under a judge that delays and duplicates. In the simulator the run is the run
// without overwriting, bit for bit; across the TCP bridge of the wall-clock
// chaos topology the history is linearizable, the replicas converge and none
// of them drops an envelope as a bad MAC.
func TestSentEnvelopesAreNotRetained(t *testing.T) {
	for _, mode := range []Mode{Baseline, CTroxy, ETroxy} {
		t.Run("simnet/"+mode.String(), func(t *testing.T) {
			clean, cleanState, cleanHist := retentionRun(t, mode, lending{}, faultplane.NewInjector(31, delayAndDuplicate))
			lent, lentState, hist := retentionRun(t, mode, lending{sent: true}, faultplane.NewInjector(31, delayAndDuplicate))
			if err := faultplane.CheckLinearizable(hist); err != nil {
				t.Errorf("history over lent sends is not linearizable: %v", err)
			}
			if lentState != cleanState {
				t.Errorf("final state %s, want the clean run's %s", lentState.Short(), cleanState.Short())
			}
			if fmt.Sprint(hist) != fmt.Sprint(cleanHist) {
				t.Errorf("history differs from the clean run's:\n lent  %v\n clean %v", hist, cleanHist)
			}
			if fmt.Sprint(lent) != fmt.Sprint(clean) {
				t.Errorf("proposals differ from the clean run's:\n lent  %v\n clean %v", lent, clean)
			}
		})
	}
	t.Run("bridge", func(t *testing.T) {
		res := runChaosRealnet(t, chaosRealnetOpts{seed: 31, plan: delayAndDuplicate, lendSends: true})
		expectNoBadMACs(t, res.cl, 0, 1, 2)
	})
}

// TestDecodedOrderingMessagesAreNotRetained: a replica decodes every PREPARE,
// COMMIT and FORWARD into one struct of each kind that it owns and reuses, and
// the core copies what it keeps of them — a PREPARE or COMMIT parked out of
// lane order or for a later view, a request queued through a view change, a
// log entry's batch and certificate. Overwriting those structs, every request
// slot of the PREPARE's included, once each delivery returns (poisonedDecodes)
// must therefore change nothing: in the simulator, under a judge that delays,
// reorders and duplicates (and makes PREPAREs overtake each other on their
// lanes), the run is the unpoisoned run bit for bit; across
// the TCP bridge of the wall-clock chaos topology the history is linearizable,
// the replicas converge and none of them drops an envelope as a bad MAC.
func TestDecodedOrderingMessagesAreNotRetained(t *testing.T) {
	for _, mode := range []Mode{Baseline, CTroxy, ETroxy} {
		t.Run("simnet/"+mode.String(), func(t *testing.T) {
			clean, cleanState, cleanHist := retentionRun(t, mode, lending{}, faultplane.NewInjector(31, delayAndOvertake))
			poisoned, state, hist := retentionRun(t, mode, lending{decoded: true}, faultplane.NewInjector(31, delayAndOvertake))
			if err := faultplane.CheckLinearizable(hist); err != nil {
				t.Errorf("history over poisoned decodes is not linearizable: %v", err)
			}
			if state != cleanState {
				t.Errorf("final state %s, want the clean run's %s", state.Short(), cleanState.Short())
			}
			if fmt.Sprint(hist) != fmt.Sprint(cleanHist) {
				t.Errorf("history differs from the clean run's:\n poisoned %v\n clean    %v", hist, cleanHist)
			}
			if fmt.Sprint(poisoned) != fmt.Sprint(clean) {
				t.Errorf("proposals differ from the clean run's:\n poisoned %v\n clean    %v", poisoned, clean)
			}
		})
	}
	t.Run("bridge", func(t *testing.T) {
		res := runChaosRealnet(t, chaosRealnetOpts{seed: 31, plan: delayAndOvertake, poisonDecodes: true})
		expectNoBadMACs(t, res.cl, 0, 1, 2)
	})
}
