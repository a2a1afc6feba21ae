package main

import (
	"crypto/ed25519"
	"fmt"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/replica"
	"github.com/troxy-bft/troxy/internal/tcounter"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
)

// deployment is what the harness needs from a cluster, traced or not.
type deployment struct {
	replicas  []*replica.Replica
	handlers  []node.Handler // what is attached to the runtime, per replica
	enclaves  []*enclave.Enclave
	apps      []app.Application // the undecorated application instances
	serverPub ed25519.PublicKey
	stats     func(i int) itroxy.Stats
}

// plainDeployment builds the cluster under test with troxy.NewCluster,
// unmodified.
func plainDeployment(cfg troxy.ClusterConfig) (*deployment, error) {
	cl, err := troxy.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		replicas:  cl.Replicas,
		enclaves:  cl.Enclaves,
		serverPub: cl.ServerPub,
		stats:     cl.TroxyStats,
	}
	for i, r := range cl.Replicas {
		d.handlers = append(d.handlers, r)
		d.apps = append(d.apps, cl.App(i))
	}
	return d, nil
}

// tracedDeployment assembles the same cluster as troxy.NewCluster's ETroxy
// branch — one enclave per replica hosting the Troxy and the counter
// subsystem, attested and provisioned, behind an EnclaveProxy and an
// EnclaveAuthority — with a span-recording decorator on every interface the
// replica is wired through. TestTracedClusterDoesSameWork holds it to the
// original.
func tracedDeployment(cfg troxy.ClusterConfig, t *tracer) (*deployment, error) {
	if cfg.N == 0 {
		cfg.N, cfg.F = 3, 1
	}
	if (cfg.Mode != 0 && cfg.Mode != troxy.ETroxy) || cfg.CommitLevels {
		return nil, fmt.Errorf("traced deployment mirrors only the ETroxy branch without commit levels")
	}
	secret := cfg.MasterSecret
	if len(secret) == 0 {
		secret = []byte("troxy-development-master-secret")
	}
	dir, err := authn.NewDirectory(secret)
	if err != nil {
		return nil, err
	}
	identitySeed := dir.ServiceIdentitySeed()
	secrets := map[string][]byte{
		tcounter.SecretName:   dir.CounterKey(),
		itroxy.SecretIdentity: identitySeed,
		itroxy.SecretGroup:    dir.TroxyGroupKey(),
	}
	d := &deployment{
		serverPub: ed25519.NewKeyFromSeed(identitySeed).Public().(ed25519.PublicKey),
	}
	var proxies []itroxy.Proxy
	for i := 0; i < cfg.N; i++ {
		self := msg.NodeID(i)
		nt := t.replica(i)
		platform := enclave.NewPlatform()
		core := itroxy.NewCore(itroxy.Config{
			Self:             self,
			N:                cfg.N,
			F:                cfg.F,
			Seed:             replicaSeed(cfg.Seed, i),
			Classify:         cfg.Classify,
			FastReads:        cfg.FastReads,
			CacheCapacity:    cfg.CacheCapacity,
			MonitorWindow:    cfg.MonitorWindow,
			MonitorThreshold: cfg.MonitorThreshold,
			ProbeInterval:    cfg.ProbeInterval,
			QueryTimeout:     cfg.QueryTimeout,
			FullCacheReplies: cfg.FullCacheReplies,
			HTTP:             cfg.HTTP,
		})
		enc, err := platform.Launch(enclave.Definition{
			Name:         fmt.Sprintf("troxy-%d", i),
			CodeIdentity: itroxy.CodeIdentity,
		}, itroxy.NewTrusted(core, tcounter.NewSubsystem(self)), nil)
		if err != nil {
			return nil, fmt.Errorf("launch enclave %d: %w", i, err)
		}
		quote := platform.QuoteFor(enc, nil)
		if err := enclave.NewVerifier(platform).Verify(quote, enclave.MeasureCode(itroxy.CodeIdentity)); err != nil {
			return nil, fmt.Errorf("attest enclave %d: %w", i, err)
		}
		if err := enc.Provision(secrets); err != nil {
			return nil, fmt.Errorf("provision enclave %d: %w", i, err)
		}
		proxy := &tracedProxy{inner: itroxy.NewEnclaveProxy(enc), n: nt}
		application := cfg.App()
		rep := replica.New(replica.Config{
			Self: self,
			N:    cfg.N,
			F:    cfg.F,
			Hybster: hybster.Config{
				CheckpointInterval: cfg.CheckpointInterval,
				ViewChangeTimeout:  cfg.ViewChangeTimeout,
				BatchSize:          cfg.BatchSize,
				BatchDelay:         cfg.BatchDelay,
				PipelineDepth:      cfg.PipelineDepth,
				SnapshotChunkSize:  cfg.SnapshotChunkSize,
				StateChunkWindow:   cfg.StateChunkWindow,
				StateFetchTimeout:  cfg.StateFetchTimeout,
				Profile:            node.ProfileJava,
				Authority:          tracedAuthority{inner: tcounter.EnclaveAuthority{E: enc}, n: nt},
				App:                newTracedApp(application, nt),
			},
			Directory:    dir,
			Proxy:        proxy,
			TickInterval: cfg.TickInterval,
		})
		d.replicas = append(d.replicas, rep)
		d.handlers = append(d.handlers, newTracedHandler(rep, nt, layerReplica))
		d.enclaves = append(d.enclaves, enc)
		d.apps = append(d.apps, application)
		proxies = append(proxies, proxy)
	}
	d.stats = func(i int) itroxy.Stats {
		s, err := proxies[i].Stats()
		if err != nil {
			return itroxy.Stats{}
		}
		return s
	}
	return d, nil
}

// replicaSeed is NewCluster's per-replica Troxy seed derivation.
func replicaSeed(seed int64, i int) int64 {
	if seed == 0 {
		return 0
	}
	return seed*1000003 + int64(i) + 1
}

// tracedProxy decorates a troxy.Proxy: one span per call, and the stage
// stamps that only this boundary can see.
type tracedProxy struct {
	inner itroxy.Proxy
	n     *nodeTrace
}

var _ itroxy.Proxy = (*tracedProxy)(nil)

func (p *tracedProxy) span(method string, req, seq uint64) {
	p.n.begin(layerTroxy, func() string { return "troxy." + method }, req, seq)
}

// finish closes the call's span and stamps the vote stage for every
// client-bound record the call produced.
func (p *tracedProxy) finish(acts itroxy.Actions) {
	p.n.end()
	if len(acts.Client) == 0 {
		return
	}
	now := p.n.t.now()
	for i := range acts.Client {
		if st := p.n.t.stamp(acts.Client[i].ConnID); st != nil {
			st.voted.Store(now)
		}
	}
}

func (p *tracedProxy) Profile() node.Profile { return p.inner.Profile() }

func (p *tracedProxy) AcceptConn(env node.Env, connID uint64, from msg.NodeID) {
	p.span("accept_conn", connID, 0)
	p.inner.AcceptConn(env, connID, from)
	p.n.end()
}

func (p *tracedProxy) CloseConn(env node.Env, connID uint64) {
	p.span("close_conn", connID, 0)
	p.inner.CloseConn(env, connID)
	p.n.end()
}

func (p *tracedProxy) HandleClientData(env node.Env, connID uint64, from msg.NodeID, payload []byte) (itroxy.Actions, error) {
	p.span("handle_client_data", connID, 0)
	acts, err := p.inner.HandleClientData(env, connID, from, payload)
	p.n.end()
	if st := p.n.t.stamp(connID); st != nil {
		st.troxyIn.Store(p.n.t.now())
	}
	return acts, err
}

func (p *tracedProxy) AuthenticateReply(env node.Env, rep *msg.OrderedReply, read, fresh bool, opHash msg.Digest) error {
	// A legacy client's identity is its connection ID. Only the contact
	// replica's stamps exist for a client, and only its own handler wrote
	// them, so stamping here is race-free when this replica is the contact.
	if st := p.n.t.stamp(rep.Client); st != nil && st.handlerStart.Load() != 0 && p.isContact(rep.Client) {
		st.executed.CompareAndSwap(0, p.n.t.now())
	}
	p.span("authenticate_reply", rep.Client, rep.ClientSeq)
	err := p.inner.AuthenticateReply(env, rep, read, fresh, opHash)
	p.n.end()
	return err
}

// isContact reports whether this replica is the one client connects to
// (client i contacts replica i mod N, and no fail-over happens on a run that
// counts).
func (p *tracedProxy) isContact(client uint64) bool {
	return int32((client-firstClientID)%numReplicas) == p.n.id
}

func (p *tracedProxy) HandleReply(env node.Env, rep *msg.OrderedReply) (itroxy.Actions, error) {
	p.span("handle_reply", rep.Client, rep.ClientSeq)
	acts, err := p.inner.HandleReply(env, rep)
	p.finish(acts)
	return acts, err
}

func (p *tracedProxy) AuthenticateSpecReply(env node.Env, sr *msg.SpecReply) error {
	p.span("authenticate_spec_reply", sr.Client, sr.ClientSeq)
	err := p.inner.AuthenticateSpecReply(env, sr)
	p.n.end()
	return err
}

func (p *tracedProxy) HandleSpecReply(env node.Env, sr *msg.SpecReply) (itroxy.Actions, error) {
	p.span("handle_spec_reply", sr.Client, sr.ClientSeq)
	acts, err := p.inner.HandleSpecReply(env, sr)
	p.finish(acts)
	return acts, err
}

func (p *tracedProxy) HandleRetract(env node.Env, client, clientSeq, slotSeq, view uint64) (itroxy.Actions, error) {
	p.span("handle_retract", client, clientSeq)
	acts, err := p.inner.HandleRetract(env, client, clientSeq, slotSeq, view)
	p.finish(acts)
	return acts, err
}

func (p *tracedProxy) HandleCacheQuery(env node.Env, q *msg.CacheQuery) (itroxy.Actions, error) {
	p.span("handle_cache_query", 0, 0)
	acts, err := p.inner.HandleCacheQuery(env, q)
	p.finish(acts)
	return acts, err
}

func (p *tracedProxy) HandleCacheReply(env node.Env, r *msg.CacheReply) (itroxy.Actions, error) {
	p.span("handle_cache_reply", 0, 0)
	acts, err := p.inner.HandleCacheReply(env, r)
	p.finish(acts)
	return acts, err
}

func (p *tracedProxy) Tick(env node.Env) (itroxy.Actions, error) {
	p.span("tick", 0, 0)
	acts, err := p.inner.Tick(env)
	p.finish(acts)
	return acts, err
}

// Stats is read once the runtime is closed and is not a span.
func (p *tracedProxy) Stats() (itroxy.Stats, error) { return p.inner.Stats() }

// tracedAuthority decorates the trusted-counter authority.
type tracedAuthority struct {
	inner tcounter.Authority
	n     *nodeTrace
}

var _ tcounter.Authority = tracedAuthority{}

func (a tracedAuthority) Certify(counter uint32, value uint64, digest msg.Digest) (msg.CounterCert, error) {
	a.n.begin(layerCounter, func() string { return "tcounter.certify" }, 0, value)
	cert, err := a.inner.Certify(counter, value, digest)
	a.n.end()
	return cert, err
}

func (a tracedAuthority) Verify(cert msg.CounterCert, digest msg.Digest) bool {
	a.n.begin(layerCounter, func() string { return "tcounter.verify" }, 0, cert.Value)
	ok := a.inner.Verify(cert, digest)
	a.n.end()
	return ok
}

// tracedApp decorates the replicated application. It implements
// app.Incremental exactly when the application does, and wraps the iterator
// and sink it hands out, so the chunked checkpoint path is timed too.
// IsRead and Keys are a parse of a few bytes — cheaper than the clock reads
// a span costs — and pass through untimed (into the replica's self time).
type tracedApp struct {
	inner app.Application
	n     *nodeTrace
}

// tracedIncrementalApp adds the piecewise snapshot methods.
type tracedIncrementalApp struct {
	tracedApp
	inc app.Incremental
}

var (
	_ app.Application = (*tracedApp)(nil)
	_ app.Incremental = (*tracedIncrementalApp)(nil)
)

func newTracedApp(inner app.Application, n *nodeTrace) app.Application {
	base := tracedApp{inner: inner, n: n}
	if inc, ok := inner.(app.Incremental); ok {
		return &tracedIncrementalApp{tracedApp: base, inc: inc}
	}
	return &base
}

func (a *tracedApp) snapshotSpan(op string) {
	a.n.begin(layerSnapshot, func() string { return "app." + op }, 0, 0)
}

func (a *tracedApp) Execute(op []byte) []byte {
	a.n.begin(layerExec, func() string { return "app.execute" }, 0, 0)
	result := a.inner.Execute(op)
	a.n.end()
	return result
}

func (a *tracedApp) IsRead(op []byte) bool   { return a.inner.IsRead(op) }
func (a *tracedApp) Keys(op []byte) []string { return a.inner.Keys(op) }

func (a *tracedApp) Snapshot() []byte {
	a.snapshotSpan("snapshot")
	s := a.inner.Snapshot()
	a.n.end()
	return s
}

func (a *tracedApp) Restore(snapshot []byte) error {
	a.snapshotSpan("restore")
	err := a.inner.Restore(snapshot)
	a.n.end()
	return err
}

func (a *tracedIncrementalApp) SnapshotIter(maxPiece int) app.ChunkIterator {
	a.snapshotSpan("snapshot_iter")
	it := a.inc.SnapshotIter(maxPiece)
	a.n.end()
	return tracedIter{inner: it, a: &a.tracedApp}
}

func (a *tracedIncrementalApp) RestoreSink() app.RestoreSink {
	return tracedSink{inner: a.inc.RestoreSink(), a: &a.tracedApp}
}

type tracedIter struct {
	inner app.ChunkIterator
	a     *tracedApp
}

func (it tracedIter) Next() ([]byte, bool) {
	it.a.snapshotSpan("snapshot_next")
	piece, ok := it.inner.Next()
	it.a.n.end()
	return piece, ok
}

type tracedSink struct {
	inner app.RestoreSink
	a     *tracedApp
}

func (sk tracedSink) Write(p []byte) error {
	sk.a.snapshotSpan("restore_write")
	err := sk.inner.Write(p)
	sk.a.n.end()
	return err
}

func (sk tracedSink) Commit() error {
	sk.a.snapshotSpan("restore_commit")
	err := sk.inner.Commit()
	sk.a.n.end()
	return err
}
