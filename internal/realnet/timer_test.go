package realnet

import (
	"math/rand"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
)

// TestTimerRearmAllocatesNothing pins what the per-request timers of the
// protocols cost on this runtime: once a node has a timer object, setting and
// cancelling — on one key or on a key that changes every time — reuses it.
func TestTimerRearmAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()

	const cycles = 10000
	type result struct {
		sameKey, rotating float64
		free, pending     int
	}
	out := make(chan result, 1)
	c := newCollector(0)
	c.onGo = func(env node.Env) {
		n := env.(*realEnv).node
		same := node.TimerKey{Kind: "progress"}
		env.SetTimer(time.Hour, same) // warm-up: the one timer object
		env.CancelTimer(same)
		var res result
		res.sameKey = testing.AllocsPerRun(cycles, func() {
			env.SetTimer(time.Hour, same)
			env.CancelTimer(same)
		})
		id := uint64(0)
		res.rotating = testing.AllocsPerRun(cycles, func() {
			id++
			key := node.TimerKey{Kind: "retransmit", ID: id}
			env.SetTimer(time.Hour, key)
			env.SetTimer(time.Hour, key) // a re-arm of the pending key
			env.CancelTimer(key)
		})
		// More pending timers than the free list may hold, all cancelled.
		for i := 0; i < 2*maxFreeTimers; i++ {
			env.SetTimer(time.Hour, node.TimerKey{Kind: "burst", ID: uint64(i)})
		}
		for i := 0; i < 2*maxFreeTimers; i++ {
			env.CancelTimer(node.TimerKey{Kind: "burst", ID: uint64(i)})
		}
		n.timerMu.Lock()
		res.free, res.pending = len(n.freeTimers), len(n.timers)
		n.timerMu.Unlock()
		out <- res
	}
	r.Attach(1, c)
	select {
	case res := <-out:
		if res.sameKey != 0 || res.rotating != 0 {
			t.Errorf("allocations per set/cancel cycle: %.2f on one key, %.2f on rotating keys, want 0", res.sameKey, res.rotating)
		}
		if res.free != maxFreeTimers || res.pending != 0 {
			t.Errorf("after a burst of %d cancelled timers: %d on the free list (bound %d), %d pending", 2*maxFreeTimers, res.free, maxFreeTimers, res.pending)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
}

// timerChurn arms, re-arms and cancels timers over a few keys with delays
// short enough that callbacks start while the handler is still working on
// their key, and checks every fire against what the handler last asked for.
type timerChurn struct {
	rng     *rand.Rand
	ops     int
	armed   map[node.TimerKey]armedTimer
	fired   int
	errs    []string
	done    chan struct{}
	maxFree int
}

type armedTimer struct {
	at    time.Duration
	after time.Duration
}

const churnOps = 10000

func (c *timerChurn) OnStart(env node.Env) { c.step(env) }

func (c *timerChurn) OnEnvelope(env node.Env, _ *msg.Envelope) { c.step(env) }

func (c *timerChurn) OnTimer(env node.Env, key node.TimerKey) {
	a, ok := c.armed[key]
	switch {
	case !ok:
		c.errs = append(c.errs, "stale fire of "+key.Kind)
	case env.Now()-a.at < a.after:
		c.errs = append(c.errs, "early fire of "+key.Kind)
	}
	delete(c.armed, key)
	c.fired++
}

func (c *timerChurn) step(env node.Env) {
	delays := []time.Duration{0, 20 * time.Microsecond, 200 * time.Microsecond, 30 * time.Millisecond, time.Hour}
	for i := 0; i < 100 && c.ops < churnOps; i++ {
		c.ops++
		key := node.TimerKey{Kind: "k", ID: uint64(c.rng.Intn(2 * maxFreeTimers))}
		switch c.rng.Intn(4) {
		case 0:
			env.CancelTimer(key)
			delete(c.armed, key)
		case 1:
			time.Sleep(50 * time.Microsecond) // let pending callbacks start
		default:
			after := delays[c.rng.Intn(len(delays))]
			// The handler's clock reading precedes the arming, so a fire can
			// only look later than it was, never earlier.
			c.armed[key] = armedTimer{at: env.Now(), after: after}
			env.SetTimer(after, key)
		}
	}
	n := env.(*realEnv).node
	if c.ops < churnOps {
		env.Send(&msg.Envelope{From: n.id, To: n.id, Kind: msg.KindChannelData})
		return
	}
	for key := range c.armed {
		env.CancelTimer(key)
	}
	clear(c.armed)
	n.timerMu.Lock()
	c.maxFree = len(n.freeTimers)
	if len(n.timers) != 0 {
		c.errs = append(c.errs, "timers left pending after every key was cancelled")
	}
	n.timerMu.Unlock()
	// Anything that still fires from here on is stale; give it time to.
	env.SetTimer(20*time.Millisecond, node.TimerKey{Kind: "end"})
	c.armed[node.TimerKey{Kind: "end"}] = armedTimer{at: env.Now(), after: 20 * time.Millisecond}
	c.ops++
}

func TestTimerChurnNeverFiresStaleOrEarly(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()
	c := &timerChurn{rng: rand.New(rand.NewSource(5)), armed: make(map[node.TimerKey]armedTimer), done: make(chan struct{})}
	h := &churnHandler{timerChurn: c}
	r.Attach(1, h)
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out")
	}
	for _, e := range c.errs {
		t.Error(e)
	}
	if c.fired == 0 {
		t.Error("no timer fired: the schedule exercised nothing")
	}
	if c.maxFree > maxFreeTimers {
		t.Errorf("free list holds %d timers, bound %d", c.maxFree, maxFreeTimers)
	}
	t.Logf("%d operations, %d fires, %d timers on the free list", c.ops, c.fired, c.maxFree)
}

// churnHandler closes done when the end marker fires.
type churnHandler struct{ *timerChurn }

func (h *churnHandler) OnTimer(env node.Env, key node.TimerKey) {
	h.timerChurn.OnTimer(env, key)
	if key.Kind == "end" {
		close(h.done)
	}
}
