// Package faultplane is a composable, seed-reproducible fault-injection
// layer for both runtimes: the deterministic simulator (internal/simnet)
// consults an Injector at every transmission, the wall-clock runtime
// (internal/realnet) at every Send. A Plan describes per-link message drop,
// duplication, delay jitter (which reorders deliveries), payload corruption,
// symmetric and asymmetric partitions with scheduled heal, and crash/restart
// schedules; an Injector samples it with a seeded generator so a failing
// schedule reproduces exactly from its seed.
//
// The package also hosts the Byzantine replica harnesses (see byzantine.go)
// and the linearizability checker for observed client histories (see
// history.go). Together they exercise the paper's hardest robustness claims:
// the trusted voter masking up to f wrong replies (Section III-D) and the
// trusted-counter defense against equivocation in the Hybster substrate.
package faultplane

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Wildcard matches any node in a LinkFault endpoint. It aliases msg.NoNode:
// no real traffic ever carries it as a source or destination.
const Wildcard = msg.NoNode

// Decision is the fate of one message delivery.
type Decision struct {
	// Drop discards the message entirely.
	Drop bool

	// Delay postpones delivery by this much. In the simulator the delay is
	// applied after the per-link FIFO point, so a delayed message can be
	// overtaken by later traffic on the same link — this is how reordering
	// is injected.
	Delay time.Duration

	// Duplicate delivers a second, undelayed copy of the message.
	Duplicate bool

	// Corrupt flips a payload byte before delivery. Transport MACs, Troxy
	// tags, counter certificates and secure-channel records catch the
	// mutation, so corruption manifests as loss plus a detection counter,
	// never as forged acceptance.
	Corrupt bool
}

// Judge decides the fate of message deliveries. Both runtimes accept one.
type Judge interface {
	Judge(now time.Duration, from, to msg.NodeID, kind msg.Kind) Decision
}

// LinkFault injects probabilistic faults on matching links during a window.
type LinkFault struct {
	// From and To select the link; Wildcard matches any node.
	From, To msg.NodeID

	// Start and End bound the active window [Start, End). A zero End means
	// the fault never expires.
	Start, End time.Duration

	// DropP, DupP and CorruptP are per-message probabilities.
	DropP, DupP, CorruptP float64

	// Jitter adds a uniform extra delay in [0, Jitter) to every matching
	// message, reordering deliveries.
	Jitter time.Duration
}

func (lf *LinkFault) matches(now time.Duration, from, to msg.NodeID) bool {
	if now < lf.Start || (lf.End > 0 && now >= lf.End) {
		return false
	}
	if lf.From != Wildcard && lf.From != from {
		return false
	}
	if lf.To != Wildcard && lf.To != to {
		return false
	}
	return true
}

// Partition blocks traffic between two node sets during a window.
type Partition struct {
	// Start and Heal bound the partition [Start, Heal). A zero Heal means
	// the partition never heals.
	Start, Heal time.Duration

	// A and B are the two sides. Traffic A→B is blocked; B→A is also
	// blocked unless OneWay is set.
	A, B []msg.NodeID

	// OneWay makes the partition asymmetric: A can still hear B.
	OneWay bool
}

func containsNode(set []msg.NodeID, id msg.NodeID) bool {
	for _, n := range set {
		if n == id {
			return true
		}
	}
	return false
}

func (p *Partition) blocks(now time.Duration, from, to msg.NodeID) bool {
	if now < p.Start || (p.Heal > 0 && now >= p.Heal) {
		return false
	}
	if containsNode(p.A, from) && containsNode(p.B, to) {
		return true
	}
	if !p.OneWay && containsNode(p.B, from) && containsNode(p.A, to) {
		return true
	}
	return false
}

// CrashEvent schedules a whole-node crash and optional restart.
type CrashEvent struct {
	Node msg.NodeID
	At   time.Duration
	// RestartAt restores the node; zero means it stays down.
	RestartAt time.Duration
}

// Plan is a complete fault schedule.
type Plan struct {
	Links      []LinkFault
	Partitions []Partition
	Crashes    []CrashEvent
}

// End returns the instant after which the plan injects nothing anymore
// (unhealed partitions and unexpiring link faults make it zero: the plan
// never quiesces).
func (p Plan) End() time.Duration {
	var end time.Duration
	for i := range p.Links {
		if p.Links[i].End == 0 {
			return 0
		}
		if p.Links[i].End > end {
			end = p.Links[i].End
		}
	}
	for i := range p.Partitions {
		if p.Partitions[i].Heal == 0 {
			return 0
		}
		if p.Partitions[i].Heal > end {
			end = p.Partitions[i].Heal
		}
	}
	for i := range p.Crashes {
		if p.Crashes[i].RestartAt == 0 {
			return 0
		}
		if p.Crashes[i].RestartAt > end {
			end = p.Crashes[i].RestartAt
		}
	}
	return end
}

// String renders the schedule for failure messages, so a reproduced seed can
// be checked against the schedule it drew.
func (p Plan) String() string {
	var b strings.Builder
	for i := range p.Links {
		lf := &p.Links[i]
		fmt.Fprintf(&b, "link %d->%d [%v,%v) drop=%.2f dup=%.2f corrupt=%.2f jitter=%v; ",
			lf.From, lf.To, lf.Start, lf.End, lf.DropP, lf.DupP, lf.CorruptP, lf.Jitter)
	}
	for i := range p.Partitions {
		pt := &p.Partitions[i]
		dir := "<->"
		if pt.OneWay {
			dir = "-x>"
		}
		fmt.Fprintf(&b, "partition %v%s%v [%v,%v); ", pt.A, dir, pt.B, pt.Start, pt.Heal)
	}
	for i := range p.Crashes {
		ce := &p.Crashes[i]
		fmt.Fprintf(&b, "crash %d @%v restart @%v; ", ce.Node, ce.At, ce.RestartAt)
	}
	if b.Len() == 0 {
		return "no faults"
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// Injector samples a Plan with a seeded generator. It is safe for concurrent
// use (realnet judges from many goroutines); under the single-threaded
// simulator the lock is uncontended and decisions are deterministic because
// transmissions happen in a deterministic order.
type Injector struct {
	mu   sync.Mutex
	rng  *rand.Rand
	plan Plan
}

var _ Judge = (*Injector)(nil)

// NewInjector creates an injector over plan with its own seeded generator.
func NewInjector(seed int64, plan Plan) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed ^ 0x66a1a1bc)), plan: plan}
}

// Plan returns the schedule the injector samples.
func (in *Injector) Plan() Plan { return in.plan }

// Judge implements Judge.
func (in *Injector) Judge(now time.Duration, from, to msg.NodeID, kind msg.Kind) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d Decision
	for i := range in.plan.Partitions {
		if in.plan.Partitions[i].blocks(now, from, to) {
			return Decision{Drop: true}
		}
	}
	for i := range in.plan.Links {
		lf := &in.plan.Links[i]
		if !lf.matches(now, from, to) {
			continue
		}
		if lf.DropP > 0 && in.rng.Float64() < lf.DropP {
			d.Drop = true
		}
		if lf.DupP > 0 && in.rng.Float64() < lf.DupP {
			d.Duplicate = true
		}
		if lf.CorruptP > 0 && in.rng.Float64() < lf.CorruptP {
			d.Corrupt = true
		}
		if lf.Jitter > 0 {
			d.Delay += time.Duration(in.rng.Int63n(int64(lf.Jitter)))
		}
	}
	if d.Drop {
		return Decision{Drop: true}
	}
	return d
}

// CloneEnvelope deep-copies an envelope so an injected duplicate never
// shares payload memory with the original delivery.
func CloneEnvelope(e *msg.Envelope) *msg.Envelope {
	c := &msg.Envelope{From: e.From, To: e.To, Kind: e.Kind}
	if e.Body != nil {
		c.Body = append([]byte(nil), e.Body...)
	}
	if e.MAC != nil {
		c.MAC = append([]byte(nil), e.MAC...)
	}
	return c
}

// CopyEnvelope is CloneEnvelope into w: it appends e's body and MAC to w and
// points e at the copies, which share no byte with what e pointed at before.
// A runtime's Send keeps what it delivers this way, in a writer it takes from
// wire.GetWriter and puts back once the delivery is done. A nil Body or MAC
// stays nil.
func CopyEnvelope(w *wire.Writer, e *msg.Envelope) {
	start, nb := w.Len(), len(e.Body)
	w.Raw(e.Body)
	w.Raw(e.MAC)
	buf := w.Bytes()
	if e.Body != nil {
		e.Body = buf[start : start+nb : start+nb]
	}
	if e.MAC != nil {
		e.MAC = buf[start+nb:]
	}
}

// CorruptCopy returns a copy of e with one payload byte flipped. The flip is
// deterministic so simulations stay reproducible. Receivers detect it: MACed
// envelopes fail transport verification, the kinds a Troxy tags their tag
// check, PREPAREs and COMMITs their certificate check (a corrupted one blames
// nobody), secure-channel records AEAD opening — corruption degrades to
// counted loss, never forged acceptance.
func CorruptCopy(e *msg.Envelope) *msg.Envelope {
	c := CloneEnvelope(e)
	switch {
	case len(c.Body) > 0:
		c.Body[len(c.Body)-1] ^= 0x80
	case len(c.MAC) > 0:
		c.MAC[0] ^= 0x80
	}
	return c
}

// CrashRestorer is the runtime surface crash schedules drive. Both
// *simnet.Network and *realnet.Router satisfy it.
type CrashRestorer interface {
	Crash(msg.NodeID)
	Restore(msg.NodeID)
}

// Scheduler schedules a function at a runtime instant (*simnet.Network.At).
type Scheduler interface {
	At(time.Duration, func())
}

// ScheduleCrashes registers a plan's crash/restart events with a scheduler.
// Under the simulator, pass the network as both arguments.
func ScheduleCrashes(s Scheduler, cr CrashRestorer, plan Plan) {
	for _, ce := range plan.Crashes {
		ev := ce
		s.At(ev.At, func() { cr.Crash(ev.Node) })
		if ev.RestartAt > 0 {
			s.At(ev.RestartAt, func() { cr.Restore(ev.Node) })
		}
	}
}

// RandomPlan derives a fault schedule from a seed: a few transient link
// faults among the given nodes, possibly a partition (symmetric or one-way)
// and a crash/restart of one replica. Every fault ends before quiesce, so
// liveness checks run against a clean network afterwards. The same seed
// always draws the same plan.
func RandomPlan(seed int64, replicas, clients []msg.NodeID, quiesce time.Duration) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	all := append(append([]msg.NodeID(nil), replicas...), clients...)
	pick := func(set []msg.NodeID) msg.NodeID { return set[rng.Intn(len(set))] }
	window := func() (time.Duration, time.Duration) {
		start := time.Duration(rng.Int63n(int64(quiesce / 2)))
		end := start + time.Duration(rng.Int63n(int64(quiesce/4))) + quiesce/20
		if end > quiesce {
			end = quiesce
		}
		return start, end
	}

	var p Plan
	nLinks := 2 + rng.Intn(3)
	for i := 0; i < nLinks; i++ {
		from, to := msg.NodeID(Wildcard), pick(all)
		if rng.Float64() < 0.5 {
			from = pick(all)
		}
		start, end := window()
		p.Links = append(p.Links, LinkFault{
			From: from, To: to, Start: start, End: end,
			DropP:    rng.Float64() * 0.3,
			DupP:     rng.Float64() * 0.2,
			CorruptP: rng.Float64() * 0.15,
			Jitter:   time.Duration(rng.Int63n(int64(20 * time.Millisecond))),
		})
	}
	if rng.Float64() < 0.5 {
		victim := pick(replicas)
		var rest []msg.NodeID
		for _, id := range replicas {
			if id != victim {
				rest = append(rest, id)
			}
		}
		start, heal := window()
		p.Partitions = append(p.Partitions, Partition{
			Start: start, Heal: heal,
			A: []msg.NodeID{victim}, B: rest,
			OneWay: rng.Float64() < 0.5,
		})
	}
	if rng.Float64() < 0.5 {
		at := time.Duration(rng.Int63n(int64(quiesce / 3)))
		restart := at + time.Duration(rng.Int63n(int64(quiesce/3))) + quiesce/20
		if restart > quiesce {
			restart = quiesce
		}
		p.Crashes = append(p.Crashes, CrashEvent{Node: pick(replicas), At: at, RestartAt: restart})
	}
	return p
}
