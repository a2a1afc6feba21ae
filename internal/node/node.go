// Package node defines the runtime-agnostic abstractions all protocol state
// machines are written against. The same Handler implementations (Hybster
// replicas, Troxy-backed replicas, BFT clients, the Prophecy middlebox,
// workload clients) run unchanged under two runtimes:
//
//   - internal/realnet drives them with goroutines, wall-clock timers and
//     (optionally) TCP transports — this is the deployable library; and
//   - internal/simnet drives them under a deterministic discrete-event
//     scheduler with a virtual clock, CPU/NIC/link models and a calibrated
//     cost model — this is what regenerates the paper's evaluation,
//     including the 100±20 ms WAN experiments, in milliseconds of real time.
//
// Handlers are single-threaded: a runtime never runs two handler invocations
// of the same node concurrently, so handlers need no internal locking.
package node

import (
	"math/rand"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
)

// TimerKey identifies a pending timer of a node. Setting a timer with a key
// that is already pending replaces the previous deadline.
type TimerKey struct {
	// Kind names the purpose (e.g. "viewchange", "resend").
	Kind string
	// ID disambiguates timers of the same kind (e.g. a client sequence
	// number).
	ID uint64
}

// Profile identifies the implementation technology whose processing costs an
// operation incurs. The evaluation's central asymmetry — the baseline's Java
// message authentication being slower per byte than Troxy's C/C++ — enters
// the simulation through these profiles (Section VI-C1).
type Profile uint8

// Profiles.
const (
	// ProfileJava is the baseline Hybster implementation (Java, JNI).
	ProfileJava Profile = iota + 1

	// ProfileCpp is Troxy's C/C++ implementation outside SGX ("ctroxy").
	ProfileCpp

	// ProfileEnclave is Troxy's C/C++ implementation inside SGX ("etroxy").
	ProfileEnclave
)

// ChargeKind enumerates the operations the cost model prices.
type ChargeKind uint8

// Charge kinds.
const (
	// ChargeBase is the fixed cost of handling one protocol message
	// (dispatch, bookkeeping, socket syscalls).
	ChargeBase ChargeKind = iota + 1

	// ChargeMAC prices computing or verifying an HMAC over n bytes.
	ChargeMAC

	// ChargeAEAD prices sealing or opening a secure-channel record of
	// n plaintext bytes.
	ChargeAEAD

	// ChargeHash prices hashing n bytes.
	ChargeHash

	// ChargeExec prices executing an application request of n bytes.
	ChargeExec

	// ChargeTransition prices one enclave boundary crossing copying n bytes.
	ChargeTransition

	// ChargeJNI prices one JNI crossing (Java host into native Troxy code).
	ChargeJNI
)

// Env is the interface a runtime presents to a node's handler during an
// invocation. Envs must only be used from within the invocation they were
// passed to.
type Env interface {
	// Self returns the node's ID.
	Self() msg.NodeID

	// Now returns the elapsed time since the runtime started (virtual time
	// under simulation, wall-clock time otherwise).
	Now() time.Duration

	// Send transmits an envelope whose From must equal Self, copying *e before
	// it returns (Body and MAC stay shared: msg.Envelope). Delivery is
	// asynchronous and, to faulty or crashed peers, may silently fail.
	Send(e *msg.Envelope)

	// SetTimer schedules (or reschedules) a timer.
	SetTimer(after time.Duration, key TimerKey)

	// CancelTimer cancels a pending timer; canceling an unknown key is a
	// no-op.
	CancelTimer(key TimerKey)

	// Rand returns the node's random source (seeded deterministically under
	// simulation).
	Rand() *rand.Rand

	// Charge accounts CPU time for an operation of the given kind over n
	// bytes under the given implementation profile. Real runtimes ignore
	// it; the simulator converts it to virtual service time.
	Charge(p Profile, k ChargeKind, n int)

	// Logf emits a debug log line attributed to the node.
	Logf(format string, args ...any)
}

// Handler is a protocol state machine. Runtimes guarantee that OnStart runs
// before any other callback and that callbacks never overlap for one node.
type Handler interface {
	// OnStart initializes the node.
	OnStart(env Env)

	// OnEnvelope delivers a received envelope, which is untrusted input and
	// valid only for this invocation: a handler copies what it keeps.
	OnEnvelope(env Env, e *msg.Envelope)

	// OnTimer delivers a timer expiry.
	OnTimer(env Env, key TimerKey)
}

// Runtime is the minimal interface experiments use to compose deployments.
// Both simnet.Network and realnet.Router implement it.
type Runtime interface {
	// Attach registers a handler under an ID. It must be called before the
	// runtime starts delivering events to that node.
	Attach(id msg.NodeID, h Handler)

	// Detach removes the node under an ID, ending a crash of it. A handler
	// attached under the ID later gets none of its timers or queued deliveries.
	Detach(id msg.NodeID)
}
