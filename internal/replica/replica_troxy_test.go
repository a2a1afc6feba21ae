package replica

import (
	"crypto/ed25519"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/tcounter"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
	"github.com/troxy-bft/troxy/internal/workload"
)

// newTroxyCluster assembles three Troxy-mode replicas by hand (ctroxy
// binding), without the root package's convenience wiring.
func newTroxyCluster(t testing.TB) ([]*Replica, ed25519.PublicKey, *simnet.Network) {
	t.Helper()
	dir := troxyDir(t)
	net := simnet.New(4, nil)
	net.SetDefaultLink(simnet.FixedLatency(time.Millisecond))
	var reps []*Replica
	for i := 0; i < 3; i++ {
		r, _ := newTroxyReplica(t, dir, msg.NodeID(i))
		reps = append(reps, r)
		net.Attach(msg.NodeID(i), r)
	}
	return reps, servicePub(dir), net
}

func troxyDir(t testing.TB) *authn.Directory {
	t.Helper()
	dir, err := authn.NewDirectory([]byte("replica-troxy-test"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// servicePub is the service identity a client of dir's Troxies checks.
func servicePub(dir *authn.Directory) ed25519.PublicKey {
	return ed25519.NewKeyFromSeed(dir.ServiceIdentitySeed()).Public().(ed25519.PublicKey)
}

// newTroxyReplica builds Troxy-mode replica self of a group of three, beside
// the Core its in-process binding drives.
func newTroxyReplica(t testing.TB, dir *authn.Directory, self msg.NodeID) (*Replica, *itroxy.Core) {
	t.Helper()
	sub := tcounter.NewSubsystem(self)
	sub.SetKey(dir.CounterKey())
	core := itroxy.NewCore(itroxy.Config{
		Self: self, N: 3, F: 1, Seed: int64(self + 1),
		Classify:  func(op []byte) bool { return strings.HasPrefix(string(op), "GET ") },
		FastReads: true,
	})
	if err := core.ProvisionSecrets(map[string][]byte{
		itroxy.SecretIdentity: dir.ServiceIdentitySeed(),
		itroxy.SecretGroup:    dir.TroxyGroupKey(),
		tcounter.SecretName:   dir.CounterKey(),
	}); err != nil {
		t.Fatal(err)
	}
	r := New(Config{
		Self: self, N: 3, F: 1,
		Hybster: hybster.Config{
			Profile:           node.ProfileJava,
			Authority:         tcounter.Direct{S: sub},
			App:               app.NewStore(),
			ViewChangeTimeout: 10 * time.Second,
		},
		Directory:    dir,
		Proxy:        itroxy.NewDirectProxy(core),
		TickInterval: 20 * time.Millisecond,
	})
	return r, core
}

func TestTroxyModeEndToEnd(t *testing.T) {
	_, pub, net := newTroxyCluster(t)
	ops := []workload.Op{
		{Op: []byte("PUT a 1")},
		{Op: []byte("GET a"), Read: true},
		{Op: []byte("GET a"), Read: true},
	}
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas:  []msg.NodeID{1, 2, 0},
		ServerPub: pub,
		Gen:       &listGen{ops: ops},
		MaxOps:    len(ops), Timeout: time.Second,
	})
	net.Attach(10, lc)
	net.Run(20 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d", lc.Done(), len(ops))
	}
}

// listGen replays a fixed operation list (repeating the last entry).
type listGen struct {
	ops []workload.Op
	i   int
}

func (g *listGen) Next(*rand.Rand) workload.Op {
	if g.i >= len(g.ops) {
		return g.ops[len(g.ops)-1]
	}
	op := g.ops[g.i]
	g.i++
	return op
}
