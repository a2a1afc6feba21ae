// Package troxy is the public entry point of the library: it assembles
// complete Troxy-backed (or baseline Hybster) clusters — enclaves,
// attestation, provisioning, trusted counters, protocol cores, replicas —
// ready to attach to either runtime (the real goroutine/TCP runtime in
// internal/realnet or the deterministic simulator in internal/simnet).
//
// See the examples/ directory for end-to-end usage and internal/troxy for
// the trusted proxy itself.
package troxy

import (
	"crypto/ed25519"
	"fmt"
	"time"

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

// Mode selects the system configuration under evaluation.
type Mode uint8

// Modes. They mirror the paper's systems: the baseline is the original
// (client-voting) Hybster, ctroxy runs the Troxy library outside SGX, and
// etroxy runs it inside an enclave.
const (
	// Baseline is original Hybster: BFT clients vote themselves; replicas
	// host only the trusted-counter enclave.
	Baseline Mode = iota + 1

	// CTroxy runs the Troxy natively outside SGX (measures the cost of
	// relocating the client library without trusted execution).
	CTroxy

	// ETroxy runs the Troxy inside an enclave (the full system).
	ETroxy
)

// String returns the evaluation name of the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "BL"
	case CTroxy:
		return "ctroxy"
	case ETroxy:
		return "etroxy"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ClusterConfig describes a deployment.
type ClusterConfig struct {
	// N and F are the replication parameters; N must equal 2F+1. Zero
	// values mean N=3, F=1 (the paper's setup).
	N, F int

	// Mode selects Baseline, CTroxy or ETroxy.
	Mode Mode

	// App creates each replica's application instance.
	App app.Factory

	// Classify reports whether an operation is read-only (service-specific;
	// required for fast reads).
	Classify func(op []byte) bool

	// FastReads enables the Troxy's managed fast-read cache.
	FastReads bool

	// HTTP switches the client protocol to HTTP/1.1 byte streams.
	HTTP bool

	// MasterSecret provisions all deployment keys. Empty uses a fixed
	// development secret.
	MasterSecret []byte

	// Seed makes Troxy-internal randomness deterministic (0 = crypto/rand
	// for handshakes).
	Seed int64

	// CheckpointInterval, ViewChangeTimeout, TickInterval and QueryTimeout
	// tune the protocol; zero values use package defaults.
	CheckpointInterval uint64
	ViewChangeTimeout  time.Duration
	TickInterval       time.Duration
	QueryTimeout       time.Duration

	// BatchSize and BatchDelay tune the leader's ordering batches: up to
	// BatchSize requests share one trusted-counter certification and one
	// PREPARE/COMMIT round, and an underfull batch is cut after BatchDelay.
	// Zero BatchSize (or one) orders each request individually.
	BatchSize  int
	BatchDelay time.Duration

	// PipelineDepth bounds how many batches the leader keeps in flight at
	// once and lets followers vote on the whole window out of order; commit
	// application stays in sequence order. Zero disables pipelining: one
	// ordering counter, strictly in-order dissemination and no in-flight
	// limit (hybster.Config.PipelineDepth). All replicas must use the same
	// value.
	PipelineDepth int

	// SnapshotChunkSize, StateChunkWindow and StateFetchTimeout tune
	// chunked checkpoint state transfer: snapshots are carved into chunks
	// of at most SnapshotChunkSize bytes (identical on all replicas — it
	// shapes the voted manifest; an upper bound, not every chunk's exact
	// size: a chunk is a run of whole records and only a single record
	// larger than the bound exceeds it), a fetching replica keeps at most
	// StateChunkWindow chunks in flight, and unanswered fetch rounds retry
	// after StateFetchTimeout with exponential backoff and peer rotation.
	// Zero values use package defaults.
	SnapshotChunkSize int
	StateChunkWindow  int
	StateFetchTimeout time.Duration

	// MonitorWindow, MonitorThreshold and ProbeInterval tune the conflict
	// monitor (zero values use package defaults).
	MonitorWindow    int
	MonitorThreshold float64
	ProbeInterval    time.Duration

	// CacheCapacity bounds the fast-read cache in bytes.
	CacheCapacity int64

	// FullCacheReplies selects the paper's base cache-exchange variant
	// (full entries between Troxies) instead of the hash optimization.
	FullCacheReplies bool

	// CommitLevels enables the tunable-commit-level fast path: each replica
	// executes prepared requests ahead of commitment on a fork of its
	// application (App must produce an app.Forker), and requests flagged fast
	// (the FlagFastCommit request flag, or the X-Troxy-Consistency: fast HTTP
	// header) are answered at PREPARE time with f+1 counter-certified
	// speculative votes. No effect in Baseline mode (its BFT clients vote
	// over durable replies only).
	CommitLevels bool
}

// Cluster is an assembled deployment.
type Cluster struct {
	Config    ClusterConfig
	Replicas  []*replica.Replica
	Enclaves  []*enclave.Enclave
	Directory *authn.Directory

	// ServerPub is the service identity legacy clients pin.
	ServerPub ed25519.PublicKey

	apps    []app.Application
	proxies []itroxy.Proxy
	secrets map[string][]byte // what every enclave is provisioned with
}

// NewCluster builds a cluster of cfg.N replicas, each with newReplica.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N == 0 {
		cfg.N, cfg.F = 3, 1
	}
	if cfg.N != 2*cfg.F+1 {
		return nil, fmt.Errorf("troxy: N=%d must equal 2F+1 (F=%d)", cfg.N, cfg.F)
	}
	if cfg.N > itroxy.MaxReplicas {
		return nil, fmt.Errorf("troxy: N=%d exceeds the %d replicas a reply vote can count", cfg.N, itroxy.MaxReplicas)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ETroxy
	}
	if cfg.Mode > ETroxy {
		return nil, fmt.Errorf("troxy: unknown mode %d", cfg.Mode)
	}
	if cfg.App == nil {
		return nil, fmt.Errorf("troxy: missing application factory")
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
	cl := &Cluster{
		Config:    cfg,
		Replicas:  make([]*replica.Replica, cfg.N),
		Enclaves:  make([]*enclave.Enclave, cfg.N),
		Directory: dir,
		ServerPub: ed25519.NewKeyFromSeed(identitySeed).Public().(ed25519.PublicKey),
		apps:      make([]app.Application, cfg.N),
		proxies:   make([]itroxy.Proxy, cfg.N),
		secrets: map[string][]byte{
			tcounter.SecretName:   dir.CounterKey(),
			itroxy.SecretIdentity: identitySeed,
			itroxy.SecretGroup:    dir.TroxyGroupKey(),
		},
	}
	for i := 0; i < cfg.N; i++ {
		if err := cl.newReplica(i); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// newReplica builds replica i from nothing — a fresh platform and enclave,
// counters at zero, an empty application and a new Troxy core — and installs
// it at index i; on error nothing at i changes. Every mode launches one
// enclave, verifies its quote (remote attestation) and only then provisions
// it. The modes differ in what it hosts (the counters, and in ETroxy the Troxy
// beside them) and in the proxy: none, the library in process, or ecalls.
func (c *Cluster) newReplica(i int) error {
	cfg := c.Config
	self := msg.NodeID(i)
	counters := tcounter.NewSubsystem(self)
	var core *itroxy.Core
	if cfg.Mode != Baseline {
		core = itroxy.NewCore(itroxy.Config{
			Self:             self,
			N:                cfg.N,
			F:                cfg.F,
			Seed:             deriveSeed(cfg.Seed, i),
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
	}
	def := enclave.Definition{Name: fmt.Sprintf("hybster-counters-%d", i), CodeIdentity: "hybster-counters-v1"}
	var hosted enclave.Trusted = tcounter.Hosted{S: counters}
	if cfg.Mode == ETroxy {
		def = enclave.Definition{Name: fmt.Sprintf("troxy-%d", i), CodeIdentity: itroxy.CodeIdentity}
		hosted = itroxy.NewTrusted(core, counters)
	}

	platform := enclave.NewPlatform()
	enc, err := platform.Launch(def, hosted, nil)
	if err != nil {
		return fmt.Errorf("troxy: launch enclave %s: %w", def.Name, err)
	}
	if err := enclave.NewVerifier(platform).Verify(platform.QuoteFor(enc, nil), enclave.MeasureCode(def.CodeIdentity)); err != nil {
		return fmt.Errorf("troxy: attestation failed for %s: %w", def.Name, err)
	}
	if err := enc.Provision(c.secrets); err != nil {
		return fmt.Errorf("troxy: provision %s: %w", def.Name, err)
	}

	var proxy itroxy.Proxy
	switch cfg.Mode {
	case CTroxy:
		if err := core.ProvisionSecrets(c.secrets); err != nil {
			return fmt.Errorf("troxy: provision ctroxy %d: %w", i, err)
		}
		proxy = itroxy.NewDirectProxy(core)
	case ETroxy:
		proxy = itroxy.NewEnclaveProxy(enc)
	}

	application := cfg.App()
	speculate := cfg.CommitLevels && cfg.Mode != Baseline
	if _, ok := application.(app.Forker); speculate && !ok {
		return fmt.Errorf("troxy: CommitLevels needs an application that implements app.Forker, not %T", application)
	}
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
			Authority:          tcounter.EnclaveAuthority{E: enc},
			App:                application,
			Speculate:          speculate,
		},
		Directory:    c.Directory,
		Proxy:        proxy,
		TickInterval: cfg.TickInterval,
	})
	c.Replicas[i], c.Enclaves[i], c.apps[i], c.proxies[i] = rep, enc, application, proxy
	return nil
}

// deriveSeed gives each replica's Troxy its own deterministic stream (seed 0
// stays 0: production randomness).
func deriveSeed(seed int64, i int) int64 {
	if seed == 0 {
		return 0
	}
	return seed*1000003 + int64(i) + 1
}

// Attach registers all replicas with a runtime (replica i gets node ID i).
func (c *Cluster) Attach(rt node.Runtime) {
	for i, r := range c.Replicas {
		rt.Attach(msg.NodeID(i), r)
	}
}

// Reincarnate replaces replica i on rt with one newReplica builds, which
// catches up from its peers: a restart that loses all state, where a runtime's
// Crash/Restore is a pause. An error leaves the old replica attached.
func (c *Cluster) Reincarnate(rt node.Runtime, i int) error {
	if err := c.newReplica(i); err != nil {
		return err
	}
	rt.Detach(msg.NodeID(i))
	rt.Attach(msg.NodeID(i), c.Replicas[i])
	return nil
}

// App returns replica i's application instance (tests compare state
// digests across replicas).
func (c *Cluster) App(i int) app.Application { return c.apps[i] }

// ReplicaIDs returns the node IDs of all replicas.
func (c *Cluster) ReplicaIDs() []msg.NodeID {
	ids := make([]msg.NodeID, c.Config.N)
	for i := range ids {
		ids[i] = msg.NodeID(i)
	}
	return ids
}

// TroxyStats returns replica i's Troxy counters (zero in Baseline mode).
func (c *Cluster) TroxyStats(i int) itroxy.Stats {
	p := c.proxies[i]
	if p == nil {
		return itroxy.Stats{}
	}
	s, err := p.Stats()
	if err != nil {
		return itroxy.Stats{}
	}
	return s
}
