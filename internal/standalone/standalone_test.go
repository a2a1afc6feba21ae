package standalone

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/wire"
	"github.com/troxy-bft/troxy/internal/workload"
)

// TestReplyHead pins the head Reply sizes a sealed reply by: a ChannelReply
// with an empty result encodes to the head alone.
func TestReplyHead(t *testing.T) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	(&msg.ChannelReply{Seq: 1, Status: msg.StatusOK}).MarshalWire(w)
	if got := len(w.Bytes()); got != replyHead {
		t.Errorf("empty-result ChannelReply encodes to %d bytes, replyHead = %d", got, replyHead)
	}
}

func identity() ([]byte, ed25519.PublicKey) {
	seed := bytes.Repeat([]byte{9}, ed25519.SeedSize)
	return seed, ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
}

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

func TestStandaloneKVRoundTrip(t *testing.T) {
	seed, pub := identity()
	srv := New(Config{Self: 60, IdentitySeed: seed, App: app.NewStore()})
	net := simnet.New(1, nil)
	net.SetDefaultLink(simnet.FixedLatency(time.Millisecond))
	net.Attach(60, srv)

	rec := workload.NewRecorder()
	rec.Begin(0)
	lc := legacyclient.New(legacyclient.Config{
		Machine: 100, Clients: 1, FirstClientID: 1,
		Replicas:  []msg.NodeID{60},
		ServerPub: pub,
		Gen: &scriptGen{ops: []workload.Op{
			{Op: []byte("PUT a 1")},
			{Op: []byte("GET a"), Read: true},
		}},
		Rec: rec, MaxOps: 2, Timeout: time.Second,
	})
	net.Attach(100, lc)
	net.Run(10 * time.Second)
	if lc.Done() != 2 {
		t.Fatalf("done = %d/2", lc.Done())
	}
	if srv.Executed() != 2 {
		t.Errorf("server executed %d", srv.Executed())
	}
}

func TestStandaloneHTTP(t *testing.T) {
	seed, pub := identity()
	srv := New(Config{
		Self:         60,
		IdentitySeed: seed,
		App:          app.NewHTTPAppFactory(map[string][]byte{"/x": []byte("body")})(),
		HTTP:         true,
	})
	net := simnet.New(1, nil)
	net.SetDefaultLink(simnet.FixedLatency(time.Millisecond))
	net.Attach(60, srv)

	lc := legacyclient.New(legacyclient.Config{
		Machine: 100, Clients: 1, FirstClientID: 1,
		Replicas:  []msg.NodeID{60},
		ServerPub: pub,
		Gen: &scriptGen{ops: []workload.Op{
			{Op: []byte("GET /x HTTP/1.1\r\nHost: t\r\n\r\n"), Read: true},
		}},
		MaxOps: 1, Timeout: time.Second, HTTP: true,
	})
	net.Attach(100, lc)
	net.Run(10 * time.Second)
	if lc.Done() != 1 {
		t.Fatalf("done = %d/1", lc.Done())
	}
}

func TestStandaloneIgnoresGarbage(t *testing.T) {
	seed, _ := identity()
	srv := New(Config{Self: 60, IdentitySeed: seed, App: app.NewStore()})
	net := simnet.New(1, nil)
	net.Attach(60, srv)
	net.Attach(100, &garbageSender{to: 60})
	net.Run(time.Second)
	if srv.Executed() != 0 {
		t.Error("garbage led to execution")
	}
}

type garbageSender struct{ to msg.NodeID }

func (g *garbageSender) OnStart(env node.Env) {
	env.Send(msg.Seal(env.Self(), g.to, &msg.ChannelData{ConnID: 1, Payload: []byte("junk")}))
}

func (g *garbageSender) OnEnvelope(node.Env, *msg.Envelope) {}
func (g *garbageSender) OnTimer(node.Env, node.TimerKey)    {}
