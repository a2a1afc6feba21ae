package troxy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
)

func d(s string) msg.Digest { return msg.DigestOf([]byte(s)) }

func TestCachePutGetInvalidate(t *testing.T) {
	c := NewCache(1 << 20)
	if got := c.Get(d("op1")); got != nil {
		t.Errorf("empty cache returned %q", got)
	}
	c.Put(d("op1"), []byte("reply1"), []string{"k1"})
	c.Put(d("op2"), []byte("reply2"), []string{"k1", "k2"})
	c.Put(d("op3"), []byte("reply3"), []string{"k3"})

	if got := c.Get(d("op1")); string(got) != "reply1" {
		t.Errorf("Get op1 = %q", got)
	}
	// Invalidating k1 must drop both dependent entries, not op3.
	c.Invalidate([]byte("k1"))
	if c.Get(d("op1")) != nil || c.Get(d("op2")) != nil {
		t.Error("entries survived invalidation")
	}
	if got := c.Get(d("op3")); string(got) != "reply3" {
		t.Errorf("unrelated entry lost: %q", got)
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", st.Invalidations)
	}
	// Invalidating an unknown key is a no-op.
	c.Invalidate([]byte("nope"))
}

func TestCacheReplace(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put(d("op"), []byte("v1"), []string{"a"})
	c.Put(d("op"), []byte("v2"), []string{"b"})
	if got := c.Get(d("op")); string(got) != "v2" {
		t.Errorf("Get = %q", got)
	}
	// The old key index must be gone: invalidating "a" must not drop v2.
	c.Invalidate([]byte("a"))
	if got := c.Get(d("op")); string(got) != "v2" {
		t.Error("stale key index dropped replaced entry")
	}
	c.Invalidate([]byte("b"))
	if c.Get(d("op")) != nil {
		t.Error("new key index missing")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Each entry costs len(reply)+64; capacity fits ~4 entries of 100+64.
	c := NewCache(700)
	for i := 0; i < 4; i++ {
		c.Put(d(fmt.Sprintf("op%d", i)), make([]byte, 100), []string{"k"})
	}
	// Touch op0 so op1 becomes the LRU victim.
	c.Get(d("op0"))
	c.Put(d("op4"), make([]byte, 100), []string{"k"})
	if c.Get(d("op1")) != nil {
		t.Error("LRU victim survived")
	}
	if c.Get(d("op0")) == nil {
		t.Error("recently used entry evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions counted")
	}
	if c.Stats().UsedBytes > 700 {
		t.Errorf("capacity exceeded: %d", c.Stats().UsedBytes)
	}
}

func TestCacheQuickNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCache(2000)
		for i, op := range ops {
			c.Put(d(fmt.Sprintf("op%d", op)), make([]byte, int(op)+1), []string{"k"})
			if i%3 == 0 {
				c.Get(d(fmt.Sprintf("op%d", op)))
			}
			if c.Stats().UsedBytes > 2000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheQuickInvalidateDropsAllDependents(t *testing.T) {
	f := func(entries []uint8, victim uint8) bool {
		c := NewCache(1 << 20)
		key := fmt.Sprintf("k%d", victim%4)
		for _, e := range entries {
			c.Put(d(fmt.Sprintf("op%d", e)), []byte{e}, []string{fmt.Sprintf("k%d", e%4)})
		}
		c.Invalidate([]byte(key))
		for _, e := range entries {
			if fmt.Sprintf("k%d", e%4) == key && c.Get(d(fmt.Sprintf("op%d", e))) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorSwitchesUnderConflicts(t *testing.T) {
	m := NewMonitor(16, 0.5, time.Second)
	now := time.Duration(0)
	if !m.Allow(now) {
		t.Fatal("fresh monitor must allow fast reads")
	}
	// All fallbacks: once a quarter of the window has signal, it trips.
	trips := 0
	for i := 0; i < 16; i++ {
		if !m.Allow(now) {
			trips++
			break
		}
		m.Record(now, true)
		now += time.Millisecond
	}
	if trips == 0 {
		t.Fatal("monitor never switched to total-order mode")
	}
	if m.Switches() == 0 {
		t.Error("switches counter not incremented")
	}
	// After the probe interval it allows fast reads again.
	if m.Allow(now) {
		t.Error("monitor re-enabled before probe interval")
	}
	if !m.Allow(now + 2*time.Second) {
		t.Error("monitor did not re-enable after probe interval")
	}
}

func TestMonitorStaysOnUnderSuccess(t *testing.T) {
	m := NewMonitor(16, 0.5, time.Second)
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		if !m.Allow(now) {
			t.Fatalf("monitor tripped on success-only history at %d", i)
		}
		m.Record(now, false)
		now += time.Millisecond
	}
}

func TestMonitorMixedBelowThreshold(t *testing.T) {
	m := NewMonitor(32, 0.5, time.Second)
	now := time.Duration(0)
	// 25% fallbacks stays under a 50% threshold.
	for i := 0; i < 400; i++ {
		if !m.Allow(now) {
			t.Fatalf("monitor tripped at 25%% fallbacks (i=%d)", i)
		}
		m.Record(now, i%4 == 0)
		now += time.Millisecond
	}
}

func TestMonitorThresholdAboveOneNeverTrips(t *testing.T) {
	m := NewMonitor(8, 1.1, time.Second)
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		m.Record(now, true)
		if !m.Allow(now) {
			t.Fatal("monitor with threshold > 1 tripped")
		}
	}
}

// recountMonitor is the monitor as it was before Record kept a running count:
// it recounts the window on every outcome. TestMonitorRunningCountIsARecount
// holds the real one to it.
type recountMonitor struct {
	window, idx, filled int
	threshold           float64
	probe               time.Duration
	outcomes            []bool
	disabledUntil       time.Duration
	switches            uint64
}

func (m *recountMonitor) record(now time.Duration, fallback bool) {
	m.outcomes[m.idx] = fallback
	m.idx = (m.idx + 1) % m.window
	if m.filled < m.window {
		m.filled++
	}
	if m.filled < m.window/4 || m.filled == 0 {
		return
	}
	fallbacks := 0
	for i := 0; i < m.filled; i++ {
		if m.outcomes[i] {
			fallbacks++
		}
	}
	if float64(fallbacks)/float64(m.filled) >= m.threshold {
		m.disabledUntil = now + m.probe
		m.switches++
		m.filled, m.idx = 0, 0
	}
}

// TestMonitorRunningCountIsARecount drives random outcome sequences — runs of
// successes and of fallbacks at varying rates, across windows that fill,
// wrap and reset — through the monitor and through a recount of its window,
// and requires the same Allow and Switches after every outcome.
func TestMonitorRunningCountIsARecount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for run := 0; run < 200; run++ {
		window := 1 + rng.Intn(300)
		threshold := []float64{0.1, 0.25, 0.5, 0.75, 1}[rng.Intn(5)]
		m := NewMonitor(window, threshold, time.Millisecond)
		ref := &recountMonitor{window: window, threshold: threshold, probe: time.Millisecond, outcomes: make([]bool, window)}
		now := time.Duration(0)
		rate := rng.Float64()
		for i := 0; i < 2000; i++ {
			if rng.Intn(100) == 0 {
				rate = rng.Float64() // the conflict rate shifts
			}
			fallback := rng.Float64() < rate
			m.Record(now, fallback)
			ref.record(now, fallback)
			now += time.Duration(rng.Intn(300)) * time.Microsecond
			if m.Allow(now) != (now >= ref.disabledUntil) || m.Switches() != ref.switches {
				t.Fatalf("run %d (window %d, threshold %.2f), outcome %d: Allow %v Switches %d, recount says %v and %d",
					run, window, threshold, i, m.Allow(now), m.Switches(), now >= ref.disabledUntil, ref.switches)
			}
		}
	}
}

// TestCacheOwnsWhatItKeeps: Put's arguments are views of buffers the caller
// reuses. The entry must survive their being overwritten — the reply it
// serves, and the key list it is indexed and later unindexed by.
func TestCacheOwnsWhatItKeeps(t *testing.T) {
	c := NewCache(1 << 20)
	reply := []byte("VALUE v")
	keys := msg.AppendKeys(nil, []string{"k", "other"})
	c.PutKeys(d("GET k"), reply, keys)
	for i := range reply {
		reply[i] = 0xA5
	}
	for i := range keys {
		keys[i] = 0xA5
	}
	if got := c.Get(d("GET k")); string(got) != "VALUE v" {
		t.Fatalf("cached reply = %q after the caller's buffer was overwritten", got)
	}
	c.Invalidate([]byte("k"))
	if c.Get(d("GET k")) != nil {
		t.Error("entry survived the invalidation of a key it depends on")
	}
	if len(c.byKey) != 0 {
		t.Errorf("%d keys still indexed after their only entry was removed: the entry's key list was not its own", len(c.byKey))
	}
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Errorf("cache not empty after invalidation: %+v", st)
	}
}

// TestCachedReplyDigestFollowsTheReply: the cache hashes a reply the first
// time a fast read or a cache query asks for its digest and hands out that
// digest from then on. It is the digest of the entry's reply, so it follows a
// replaced entry's new reply, dies with an invalidated entry, and is not
// something a caller's buffer can change afterwards.
func TestCachedReplyDigestFollowsTheReply(t *testing.T) {
	c := NewCache(1 << 20)
	reply := []byte("VALUE old")
	c.Put(d("GET k"), reply, []string{"k"})
	for i := range reply {
		reply[i] = 0xA5
	}
	for range 2 { // computed, then remembered
		got, digest := c.GetDigest(d("GET k"))
		if string(got) != "VALUE old" || digest != msg.DigestOf([]byte("VALUE old")) {
			t.Fatalf("GetDigest = %q, %s; want the reply and its digest", got, digest.Short())
		}
	}

	c.Put(d("GET k"), []byte("VALUE new"), []string{"k"})
	if got, digest := c.GetDigest(d("GET k")); string(got) != "VALUE new" || digest != msg.DigestOf(got) {
		t.Errorf("after the entry was replaced GetDigest = %q, %s; want the new reply's digest %s",
			got, digest.Short(), msg.DigestOf(got).Short())
	}
	if st := c.Stats(); st.Entries != 1 || st.UsedBytes != int64(len("VALUE new"))+64 {
		t.Errorf("footprint after a replacement: %+v", st)
	}

	c.Invalidate([]byte("k"))
	if got, digest := c.GetDigest(d("GET k")); got != nil || digest != (msg.Digest{}) {
		t.Errorf("an invalidated entry still answers %q, %s", got, digest.Short())
	}
	c.Put(d("GET k"), []byte("VALUE newer"), []string{"k"})
	if _, digest := c.GetDigest(d("GET k")); digest != msg.DigestOf([]byte("VALUE newer")) {
		t.Error("an entry installed after an invalidation answers with an older reply's digest")
	}
}
