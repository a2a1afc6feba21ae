package main

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"sort"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/tcounter"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Primitives time direct calls to the public functions the real path is made
// of, on one goroutine of an otherwise idle process. The _128 figures bound
// what a per-message optimisation can save on write_small, the _4k ones what
// a per-byte optimisation can save on write_bigstate.

const (
	primRounds      = 5
	primRoundTarget = 8 * time.Millisecond
)

// sink keeps measured calls from being optimised away.
var sink any

// timeOp returns the median over primRounds rounds of the nanoseconds one
// call of fn takes; each round runs fn long enough to fill primRoundTarget.
func timeOp(fn func()) float64 {
	fn() // warm caches and lazy initialisation
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= primRoundTarget/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(primRoundTarget)/float64(max(d, 1))))
			break
		}
		n *= 4
	}
	rounds := make([]float64, primRounds)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	sort.Float64s(rounds)
	return rounds[primRounds/2]
}

// must panics on a set-up error: the primitives only combine the program's
// own public constructors, so a failure is a bug, not an input.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("bench primitives: %v", err))
	}
	return v
}

// channelPair completes a secure-channel handshake in memory.
func channelPair() (client, server *securechannel.Session) {
	pub, priv := must2(ed25519.GenerateKey(rand.Reader))
	hs, hello := must2(securechannel.NewClientHandshake(pub, rand.Reader))
	server, serverHello := must2(securechannel.ServerHandshake(priv, hello, rand.Reader))
	return must(hs.Finish(serverHello)), server
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(fmt.Sprintf("bench primitives: %v", err))
	}
	return a, b
}

// nopTrusted is enclave code whose one ecall does nothing: what remains is
// the boundary itself (table lookup, thread budget, both defensive copies).
type nopTrusted struct{}

func (nopTrusted) ECalls() map[string]func([]byte) ([]byte, error) {
	return map[string]func([]byte) ([]byte, error){
		"nop": func(arg []byte) ([]byte, error) { return arg[:8], nil },
	}
}
func (nopTrusted) OnStart(*enclave.Services)         {}
func (nopTrusted) Provision(map[string][]byte) error { return nil }

func runPrimitives() map[string]float64 {
	out := make(map[string]float64)
	payload := func(n int) []byte { return bytes.Repeat([]byte{'p'}, n) }

	// msg: frame encode, envelope decode, batch digest.
	env := msg.Seal(0, 1, &msg.ChannelData{ConnID: 1, Payload: payload(128)})
	env.MAC = payload(authn.TagSize)
	w := wire.GetWriter()
	out["msg.append_frame_ns_128"] = timeOp(func() {
		w.Reset()
		if err := msg.AppendEnvelopeFrame(w, env); err != nil {
			panic(err)
		}
	})
	wire.PutWriter(w)
	frame := msg.EncodeEnvelope(env)
	out["msg.decode_envelope_ns_128"] = timeOp(func() { sink = must(msg.DecodeEnvelope(frame)) })
	batch := &msg.Batch{}
	for i := 0; i < 16; i++ {
		batch.Reqs = append(batch.Reqs, msg.OrderRequest{Origin: 0, Client: uint64(i), ClientSeq: 1, Op: payload(128)})
	}
	out["msg.batch_digest_ns_16x128"] = timeOp(func() { sink = batch.Digest() })

	// authn: the transport MAC every inter-replica message carries.
	dir := must(authn.NewDirectory([]byte("bench")))
	sender, receiver := authn.NewAuthenticator(0, dir), authn.NewAuthenticator(1, dir)
	macNs := make(map[int]float64)
	for _, size := range []struct {
		suffix string
		n      int
	}{{"128", 128}, {"4k", 4096}, {"", 1024}} {
		e := msg.Seal(0, 1, &msg.Forward{Req: msg.OrderRequest{Op: payload(size.n)}})
		seal := timeOp(func() { sender.SealMAC(e) })
		macNs[size.n] = seal
		if size.suffix == "" {
			continue // 1 KiB only feeds the calibration ratio
		}
		out["authn.seal_mac_ns_"+size.suffix] = seal
		out["authn.verify_mac_ns_"+size.suffix] = timeOp(func() {
			if !receiver.VerifyMAC(e) {
				panic("bench primitives: MAC rejected")
			}
		})
	}

	// securechannel: record seal and open, a coalesced flush, a handshake.
	client, _ := channelPair()
	aeadNs := make(map[int]float64)
	for _, size := range []struct {
		suffix string
		n      int
	}{{"128", 128}, {"4k", 4096}, {"", 1024}} {
		p := payload(size.n)
		seal := timeOp(func() { sink = must(client.Seal(p)) })
		aeadNs[size.n] = seal
		if size.suffix == "" {
			continue
		}
		out["securechannel.seal_ns_"+size.suffix] = seal
		// Records open only in order, so each open needs its own seal (on a
		// pair whose sequence numbers are still aligned); the seal's share,
		// just measured, is taken off.
		c, s := channelPair()
		both := timeOp(func() { sink = must(s.Open(must(c.Seal(p)))) })
		out["securechannel.open_ns_"+size.suffix] = max(both-seal, 0)
	}
	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = payload(128)
	}
	out["securechannel.seal_frames16_ns_128"] = timeOp(func() { sink = must(client.SealFrames(frames)) })
	out["securechannel.handshake_us"] = timeOp(func() { sink, _ = channelPair() }) / 1e3

	// enclave: one boundary crossing with a counter-sized argument.
	platform := enclave.NewPlatformWithKey([]byte("bench"))
	enc := must(platform.Launch(enclave.Definition{Name: "bench", CodeIdentity: "bench-v1"}, nopTrusted{}, nil))
	arg := payload(48)
	ecallNs := timeOp(func() { sink = must(enc.ECall("nop", arg)) })
	out["enclave.ecall_roundtrip_ns"] = ecallNs

	// tcounter: certification and verification inside the subsystem.
	sub := tcounter.NewSubsystem(0)
	sub.SetKey([]byte("bench"))
	digest := msg.DigestOf([]byte("bench"))
	value := uint64(0)
	var cert msg.CounterCert
	out["tcounter.certify_ns"] = timeOp(func() {
		value++
		cert = must(sub.Certify(1, value, digest))
	})
	out["tcounter.verify_ns"] = timeOp(func() {
		if !sub.Verify(cert, digest) {
			panic("bench primitives: certificate rejected")
		}
	})

	// troxy: the fast-read cache.
	cache := itroxy.NewCache(0)
	ops := make([]msg.Digest, 1024)
	reply := append([]byte("VALUE "), payload(128)...)
	for i := range ops {
		ops[i] = msg.DigestOf([]byte(keyName(i)))
		cache.Put(ops[i], reply, []string{keyName(i)})
	}
	i := 0
	out["troxy.cache_get_ns"] = timeOp(func() { i++; sink = cache.Get(ops[i%len(ops)]) })
	out["troxy.cache_put_ns"] = timeOp(func() {
		i++
		k := i % len(ops)
		cache.Put(ops[k], reply, []string{keyName(k)})
	})

	// app: the store's execute path and the checkpoint's snapshot walk.
	store := preloadedStore(workloads[0])()
	put128 := append([]byte("PUT "+keyName(7)+" "), payload(128)...)
	put4k := append([]byte("PUT "+keyName(7)+" "), payload(4096)...)
	get := []byte("GET " + keyName(7))
	out["app.exec_put_ns_128"] = timeOp(func() { sink = store.Execute(put128) })
	out["app.exec_get_ns"] = timeOp(func() { sink = store.Execute(get) }) // reads the 128 B value just put
	out["app.exec_put_ns_4k"] = timeOp(func() { sink = store.Execute(put4k) })
	big, _ := workloadByName("write_bigstate")
	bigStore := preloadedStore(big)()
	walks := make([]float64, 3)
	for r := range walks {
		start := time.Now()
		it := app.SnapshotIterOf(bigStore, 64<<10)
		for {
			piece, ok := it.Next()
			if !ok {
				break
			}
			sink = piece
		}
		walks[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	out["app.snapshot_iter_ms_32m"] = median(walks)

	out["hybster.round_us_b1"] = hybsterRound(1)
	out["hybster.round_us_b16"] = hybsterRound(16)
	out["simnet.msgs_per_wall_s"] = simnetRate()

	// Calibration: what the simulator charges for a stage, over what the
	// stage costs on this machine. 1 means the constant matches.
	cost := simnet.DefaultCostModel()
	hash1k := payload(1024)
	hashNs := timeOp(func() { sink = msg.DigestOf(hash1k) })
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	out["simnet.calib_mac_1k"] = ratio(ns(cost.CostOf(node.ProfileJava, node.ChargeMAC, 1024)), macNs[1024])
	out["simnet.calib_aead_1k"] = ratio(ns(cost.CostOf(node.ProfileEnclave, node.ChargeAEAD, 1024)), aeadNs[1024])
	out["simnet.calib_hash_1k"] = ratio(ns(cost.CostOf(node.ProfileJava, node.ChargeHash, 1024)), hashNs)
	out["simnet.calib_transition"] = ratio(ns(cost.CostOf(node.ProfileEnclave, node.ChargeTransition, len(arg))), ecallNs)
	return out
}

// shuttle is a synchronous three-replica runtime for hybster.Core: messages
// are queued by Send and delivered one by one on the caller's goroutine, with
// no encoding, MAC or scheduling — what remains is the protocol itself, the
// trusted counter and the application.
type shuttle struct {
	cores    []*hybster.Core
	queue    []shuttleMsg
	executed int
}

type shuttleMsg struct {
	from, to msg.NodeID
	m        msg.Message
}

// shuttleOut is replica self's hybster.Outbound.
type shuttleOut struct {
	s    *shuttle
	self msg.NodeID
}

func (o shuttleOut) Send(_ node.Env, to msg.NodeID, m msg.Message) {
	o.s.queue = append(o.s.queue, shuttleMsg{from: o.self, to: to, m: m})
}

func (o shuttleOut) Committed(node.Env, uint64, *msg.OrderRequest, []byte, []string, bool, bool) {
	o.s.executed++
}

// shuttleEnv is the node.Env of a shuttle replica: a clock and nothing else.
type shuttleEnv struct {
	self msg.NodeID
	rng  *mrand.Rand
	now  time.Duration
}

func (e *shuttleEnv) Self() msg.NodeID                          { return e.self }
func (e *shuttleEnv) Now() time.Duration                        { return e.now }
func (e *shuttleEnv) Send(*msg.Envelope)                        {}
func (e *shuttleEnv) SetTimer(time.Duration, node.TimerKey)     {}
func (e *shuttleEnv) CancelTimer(node.TimerKey)                 {}
func (e *shuttleEnv) Rand() *mrand.Rand                         { return e.rng }
func (e *shuttleEnv) Charge(node.Profile, node.ChargeKind, int) {}
func (e *shuttleEnv) Logf(string, ...any)                       {}

// hybsterRound times one PREPARE/COMMIT round of a batch-request batch across
// three cores: submit at the leader, deliver until quiescent, every replica
// has executed. Microseconds per round.
func hybsterRound(batch int) float64 {
	s := &shuttle{}
	envs := make([]*shuttleEnv, numReplicas)
	for i := 0; i < numReplicas; i++ {
		sub := tcounter.NewSubsystem(msg.NodeID(i))
		sub.SetKey([]byte("bench"))
		envs[i] = &shuttleEnv{self: msg.NodeID(i), rng: mrand.New(mrand.NewSource(int64(i) + 1))}
		s.cores = append(s.cores, hybster.New(hybster.Config{
			Self:          msg.NodeID(i),
			N:             numReplicas,
			F:             1,
			BatchSize:     batch,
			BatchDelay:    time.Hour, // a batch is cut when full, never by the timer
			PipelineDepth: pipelineDepth,
			Profile:       node.ProfileJava,
			Authority:     tcounter.Direct{S: sub},
			App:           app.NewStore(),
		}, shuttleOut{s: s, self: msg.NodeID(i)}))
	}
	op := append([]byte("PUT "+keyName(1)+" "), bytes.Repeat([]byte{'v'}, 128)...)
	seq := uint64(0)
	round := func() {
		seq++
		want := s.executed + numReplicas*batch
		for c := 0; c < batch; c++ {
			s.cores[0].Submit(envs[0], &msg.OrderRequest{Origin: 0, Client: uint64(c + 1), ClientSeq: seq, Op: op})
		}
		for len(s.queue) > 0 {
			d := s.queue[0]
			s.queue = s.queue[1:]
			core, env := s.cores[d.to], envs[d.to]
			switch m := d.m.(type) {
			case *msg.Prepare:
				core.OnPrepare(env, d.from, m)
			case *msg.Commit:
				core.OnCommit(env, d.from, m)
			case *msg.Checkpoint:
				core.OnCheckpoint(env, d.from, m)
			default:
				panic(fmt.Sprintf("bench primitives: hybster round sent an unexpected %s", m.Kind()))
			}
		}
		if s.executed != want {
			panic(fmt.Sprintf("bench primitives: hybster round executed %d of %d", s.executed, want))
		}
	}
	return timeOp(round) / 1e3
}

// simnetRate attaches the write_small cluster and its client machine to the
// simulator, runs simVirtual of virtual time and returns delivered messages
// per wall-clock second: the simulator is itself a layer (it executes the
// real protocol and crypto; only time is virtual).
func simnetRate() float64 {
	const simVirtual = 2 * time.Second
	spec := workloads[0]
	cl := must(troxy.NewCluster(clusterConfig(spec, 1)))
	net := simnet.New(1, simnet.DefaultCostModel())
	cl.Attach(net)
	net.Attach(clientMachine, legacyclient.New(legacyclient.Config{
		Machine:       clientMachine,
		Clients:       numClients,
		FirstClientID: firstClientID,
		Replicas:      cl.ReplicaIDs(),
		ServerPub:     cl.ServerPub,
		Gen:           newGenerator(spec, 1, "sim"),
		Timeout:       clientTimeout,
	}))
	start := time.Now()
	net.Run(simVirtual)
	return ratio(float64(net.Stats().Delivered), time.Since(start).Seconds())
}
