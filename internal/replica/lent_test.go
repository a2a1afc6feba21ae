package replica

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/simnet"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
	"github.com/troxy-bft/troxy/internal/workload"
)

// poisonedActions decorates a replica's Proxy the way its lent storage
// allows any call to be made: at the start of every call, everything the
// previous call returned — the Client, Submits and Queries entries and the
// bytes of the submits' operations, all lent until the next call
// (troxy.Proxy) — is overwritten with junk (when poison is set). mixed counts
// the results that carried submits beside records or cache messages, where
// the order the replica applies them in matters, and multi those that carried
// more than one submit, where the first one's call can come before the
// others are submitted.
type poisonedActions struct {
	itroxy.Proxy
	poison bool
	last   itroxy.Actions
	mixed  int
	multi  int
}

var junkBytes = []byte("\xa5junk\xa5")

func (p *poisonedActions) start() {
	if p.poison {
		for i := range p.last.Client {
			p.last.Client[i] = itroxy.ClientRecord{ConnID: 0xA5A5, Node: 0xA5, Frame: junkBytes, Body: junkBytes}
		}
		for i := range p.last.Submits {
			op := p.last.Submits[i].Op
			for j := range op {
				op[j] = 0xA5
			}
			p.last.Submits[i] = msg.OrderRequest{Origin: 0xA5, Client: 0xA5A5, ClientSeq: 0xA5A5, Flags: 0xA5, Op: junkBytes}
		}
		for i := range p.last.Queries {
			p.last.Queries[i] = itroxy.PeerCacheMsg{To: 0xA5, Kind: msg.Kind(0xA5), Body: junkBytes}
		}
	}
	p.last = itroxy.Actions{}
}

func (p *poisonedActions) lend(acts itroxy.Actions, err error) (itroxy.Actions, error) {
	p.last = acts
	if len(acts.Submits) > 0 && len(acts.Client)+len(acts.Queries) > 0 {
		p.mixed++
	}
	if len(acts.Submits) > 1 {
		p.multi++
	}
	return acts, err
}

func (p *poisonedActions) AcceptConn(env node.Env, connID uint64, from msg.NodeID) {
	p.start()
	p.Proxy.AcceptConn(env, connID, from)
}
func (p *poisonedActions) CloseConn(env node.Env, connID uint64) {
	p.start()
	p.Proxy.CloseConn(env, connID)
}
func (p *poisonedActions) HandleClientData(env node.Env, connID uint64, from msg.NodeID, payload []byte) (itroxy.Actions, error) {
	p.start()
	return p.lend(p.Proxy.HandleClientData(env, connID, from, payload))
}
func (p *poisonedActions) AuthenticateReply(env node.Env, rep *msg.OrderedReply, read, fresh bool, opHash msg.Digest) error {
	p.start()
	return p.Proxy.AuthenticateReply(env, rep, read, fresh, opHash)
}
func (p *poisonedActions) HandleReply(env node.Env, rep *msg.OrderedReply) (itroxy.Actions, error) {
	p.start()
	return p.lend(p.Proxy.HandleReply(env, rep))
}
func (p *poisonedActions) AuthenticateSpecReply(env node.Env, sr *msg.SpecReply) error {
	p.start()
	return p.Proxy.AuthenticateSpecReply(env, sr)
}
func (p *poisonedActions) HandleSpecReply(env node.Env, sr *msg.SpecReply) (itroxy.Actions, error) {
	p.start()
	return p.lend(p.Proxy.HandleSpecReply(env, sr))
}
func (p *poisonedActions) HandleRetract(env node.Env, client, clientSeq, slotSeq, view uint64) (itroxy.Actions, error) {
	p.start()
	return p.lend(p.Proxy.HandleRetract(env, client, clientSeq, slotSeq, view))
}
func (p *poisonedActions) HandleCacheQuery(env node.Env, q *msg.CacheQuery) (itroxy.Actions, error) {
	p.start()
	return p.lend(p.Proxy.HandleCacheQuery(env, q))
}
func (p *poisonedActions) HandleCacheReply(env node.Env, r *msg.CacheReply) (itroxy.Actions, error) {
	p.start()
	return p.lend(p.Proxy.HandleCacheReply(env, r))
}
func (p *poisonedActions) Tick(env node.Env) (itroxy.Actions, error) {
	p.start()
	return p.lend(p.Proxy.Tick(env))
}

// sendLog wraps a node and hashes every envelope it sends, at the instant it
// sends it: two runs that send the same bytes at the same times hash alike.
type sendLog struct {
	node.Handler
	h hash.Hash
}

type loggingEnv struct {
	node.Env
	h hash.Hash
}

func (e loggingEnv) Send(env *msg.Envelope) {
	var hdr [17]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(e.Now()))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(env.From))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(env.To))
	hdr[16] = byte(env.Kind)
	e.h.Write(hdr[:])
	e.h.Write(env.Body)
	e.h.Write(env.MAC)
	e.Env.Send(env)
}

func (s sendLog) OnStart(env node.Env) { s.Handler.OnStart(loggingEnv{env, s.h}) }
func (s sendLog) OnEnvelope(env node.Env, e *msg.Envelope) {
	s.Handler.OnEnvelope(loggingEnv{env, s.h}, e)
}
func (s sendLog) OnTimer(env node.Env, key node.TimerKey) {
	s.Handler.OnTimer(loggingEnv{env, s.h}, key)
}

// burstClient is a client machine whose logical clients share one secure
// channel to one replica and send a step's requests in one coalesced record,
// as a multiplexing front end does: one HandleClientData then yields a cache
// query beside submits. Each step waits for an answer to every request in
// it, re-sending what is unanswered after a timeout. answers records what
// came back, in order.
type burstClient struct {
	self, to msg.NodeID
	pub      ed25519.PublicKey
	steps    [][]msg.ChannelRequest
	step     int
	pending  map[uint64]bool // sequence numbers of the step still unanswered
	hs       *securechannel.ClientHandshake
	sess     *securechannel.Session
	answers  []string
}

const burstConn, burstTimer = 7, "burst"

func (c *burstClient) OnStart(env node.Env) {
	hs, hello, err := securechannel.NewClientHandshake(c.pub, env.Rand())
	if err != nil {
		panic(err)
	}
	c.hs = hs
	env.Send(msg.SealChannelData(c.self, c.to, burstConn, hello))
}

func (c *burstClient) OnEnvelope(env node.Env, e *msg.Envelope) {
	cd, err := e.OpenChannelData()
	if err != nil {
		return
	}
	if c.sess == nil {
		if c.sess, err = c.hs.Finish(cd.Payload); err != nil {
			panic(err)
		}
		c.send(env)
		return
	}
	frames, err := c.sess.OpenFrames(nil, cd.Payload)
	if err != nil {
		return
	}
	for f := range frames.All() {
		rep, err := msg.DecodeChannelReply(f)
		if err != nil || !c.pending[rep.Seq] {
			continue
		}
		delete(c.pending, rep.Seq)
		c.answers = append(c.answers, fmt.Sprintf("%v seq %d: %d %q", env.Now(), rep.Seq, rep.Status, rep.Result))
	}
	if len(c.pending) == 0 && c.step < len(c.steps) {
		c.step++
		c.send(env)
	}
}

func (c *burstClient) OnTimer(env node.Env, key node.TimerKey) {
	if key.ID == uint64(c.step) && len(c.pending) > 0 {
		c.send(env)
	}
}

// send seals the current step's unanswered requests into one record.
func (c *burstClient) send(env node.Env) {
	if c.step == len(c.steps) {
		return
	}
	if len(c.pending) == 0 {
		c.pending = make(map[uint64]bool)
		for _, req := range c.steps[c.step] {
			c.pending[req.Seq] = true
		}
	}
	var frames [][]byte
	for i := range c.steps[c.step] {
		if req := &c.steps[c.step][i]; c.pending[req.Seq] {
			frames = append(frames, msg.EncodeChannelRequest(req))
		}
	}
	rec, err := c.sess.SealFrames(frames)
	if err != nil {
		panic(err)
	}
	env.Send(msg.SealChannelData(c.self, c.to, burstConn, rec))
	env.SetTimer(200*time.Millisecond, node.TimerKey{Kind: burstTimer, ID: uint64(c.step)})
}

// burstSteps writes two keys, reads one through ordering (which fills the
// Troxies' caches), and then sends a fast read of it together with a
// retransmission of the other client's executed write: the read's cache
// query and the retransmission's submit leave one call, and the submit has
// its replayed reply voted from inside Submit — a call into the proxy before
// the query has been sent, unless it is sent first. Last, the retransmission
// goes in front of a third client's first write: two submits of one call,
// and the first one's replay comes before the second is submitted.
func burstSteps() [][]msg.ChannelRequest {
	putK := msg.ChannelRequest{Client: 7001, Seq: 1, Op: []byte("PUT bk 1")}
	putJ := msg.ChannelRequest{Client: 7002, Seq: 10, Op: []byte("PUT bj 2")}
	putL := msg.ChannelRequest{Client: 7003, Seq: 1, Op: []byte("PUT bl 3")}
	get := func(seq uint64) msg.ChannelRequest {
		return msg.ChannelRequest{Client: 7001, Seq: seq, Flags: msg.FlagReadOnly, Op: []byte("GET bk")}
	}
	return [][]msg.ChannelRequest{
		{putK, putJ},
		{get(2)},
		{get(3)},
		{get(4), putJ},
		{get(5), putJ},
		{putJ, putL},
	}
}

// sparing hands on its inner judge's decisions, except for envelopes to or
// from one node, which it leaves alone.
type sparing struct {
	inner faultplane.Judge
	node  msg.NodeID
}

func (j sparing) Judge(now time.Duration, from, to msg.NodeID, kind msg.Kind) faultplane.Decision {
	if from == j.node || to == j.node {
		return faultplane.Decision{}
	}
	return j.inner.Judge(now, from, to, kind)
}

// lentActionsRun drives reads and writes from two client machines through
// three Troxy-mode replicas whose proxies are poisonedActions, under a judge
// that delays, reorders and duplicates every envelope, with a client timeout
// short enough that requests are retransmitted to other replicas — which
// then replay the executed request's reply from inside Submit. It returns the
// history, a digest of everything the replicas sent, and how many results
// mixed submits with records or cache messages, and carried more than one
// submit.
func lentActionsRun(t *testing.T, poison bool) (hist []faultplane.Op, answers []string, sent string, mixed, multi int) {
	t.Helper()
	dir := troxyDir(t)
	net := simnet.New(41, nil)
	net.SetDefaultLink(simnet.FixedLatency(2 * time.Millisecond))
	// The burst client's channel does not reconnect, as a legacy client does,
	// when a record is duplicated or overtaken: its links keep their order.
	net.SetFault(sparing{inner: faultplane.NewInjector(41, faultplane.Plan{Links: []faultplane.LinkFault{{
		From: faultplane.Wildcard, To: faultplane.Wildcard, DupP: 0.1, Jitter: 3 * time.Millisecond,
	}}}), node: 110})
	h := sha256.New()
	var proxies []*poisonedActions
	for i := 0; i < 3; i++ {
		r, _ := newTroxyReplica(t, dir, msg.NodeID(i))
		p := &poisonedActions{Proxy: r.proxy, poison: poison}
		r.proxy = p
		proxies = append(proxies, p)
		net.Attach(msg.NodeID(i), sendLog{r, h})
	}
	history := &faultplane.History{}
	const machines, perMachine, opsPerClient = 2, 4, 8
	var clients []*legacyclient.Machine
	for i := 0; i < machines; i++ {
		replicas := []msg.NodeID{msg.NodeID(i), msg.NodeID(i + 1), msg.NodeID((i + 2) % 3)}
		lc := legacyclient.New(legacyclient.Config{
			Machine: msg.NodeID(100 + i), Clients: perMachine, FirstClientID: uint64(1000 * (i + 1)),
			Replicas: replicas, ServerPub: servicePub(dir),
			Gen:     workload.KVGen{Keys: 3, ReadRatio: 0.5, ValueSize: 16},
			MaxOps:  opsPerClient,
			Timeout: 30 * time.Millisecond, // below a delayed round trip: clients fail over and retransmit
			Observe: history.Observe,
		})
		clients = append(clients, lc)
		net.Attach(msg.NodeID(100+i), lc)
	}
	burst := &burstClient{self: 110, to: 0, pub: servicePub(dir), steps: burstSteps()}
	net.Attach(110, burst)
	net.Run(30 * time.Second)
	for i, lc := range clients {
		if got := lc.Done(); got != perMachine*opsPerClient {
			t.Fatalf("machine %d completed %d/%d operations", i, got, perMachine*opsPerClient)
		}
	}
	if burst.step != len(burst.steps) {
		t.Fatalf("the burst client completed %d/%d steps", burst.step, len(burst.steps))
	}
	answers = burst.answers
	for _, p := range proxies {
		mixed += p.mixed
		multi += p.multi
	}
	return history.Ops(), answers, fmt.Sprintf("%x", h.Sum(nil)), mixed, multi
}

// TestLentActionsAreUsedBeforeTheNextCall: everything an Actions holds — its
// client records, submits and cache messages — is lent until the next proxy
// call, and Submit can make one: a retransmitted request that has executed
// has its reply voted from inside it. Overwriting each result's records,
// submits and the submits' operations at the start of the next call must
// therefore change nothing — Submit copies what it keeps before it can make
// a call, and a replica stages the rest of a result's submits before the
// first: under delay, duplication and retransmission, the history and every
// envelope the replicas send are the unpoisoned run's.
func TestLentActionsAreUsedBeforeTheNextCall(t *testing.T) {
	cleanHist, cleanAnswers, cleanSent, mixed, multi := lentActionsRun(t, false)
	hist, answers, sent, _, _ := lentActionsRun(t, true)
	t.Logf("%d results mixed submits with records or cache messages, %d carried several submits; the burst client was answered %q",
		mixed, multi, answers)
	if mixed == 0 || multi == 0 {
		t.Fatal("no result carried submits beside records or cache messages, or several submits: the scenario lost its point")
	}
	if err := faultplane.CheckLinearizable(hist); err != nil {
		t.Errorf("history over poisoned actions is not linearizable: %v", err)
	}
	if len(hist) != len(cleanHist) {
		t.Errorf("%d operations observed, %d in the clean run", len(hist), len(cleanHist))
	}
	for i := range min(len(hist), len(cleanHist)) {
		if got, want := fmt.Sprint(hist[i]), fmt.Sprint(cleanHist[i]); got != want {
			t.Errorf("operation %d of the history is %s, in the clean run %s", i, got, want)
			break
		}
	}
	if fmt.Sprint(answers) != fmt.Sprint(cleanAnswers) {
		t.Errorf("the burst client was answered otherwise than in the clean run:\n poisoned %q\n clean    %q", answers, cleanAnswers)
	}
	if sent != cleanSent {
		t.Error("the replicas sent other envelopes than in the clean run")
	}
}
