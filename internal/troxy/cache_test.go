package troxy

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
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

	// The same reply under another key is a new result, not the one cached:
	// the entry must follow its new key list.
	c.Put(d("op"), []byte("v"), []string{"a"})
	c.Put(d("op"), []byte("v"), []string{"b"})
	c.Invalidate([]byte("b"))
	if c.Get(d("op")) != nil {
		t.Error("a reply re-installed under a new key survived that key's invalidation")
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

// TestCachedReplyViewOutlivesItsEntry: a fast read holds the reply GetDigest
// returned across calls (startFastRead) while the entry behind it may be
// invalidated and its storage recycled for another result. The view must go
// on reading the bytes it was handed.
func TestCachedReplyViewOutlivesItsEntry(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put(d("GET k"), []byte("VALUE v"), []string{"k"})
	view, digest := c.GetDigest(d("GET k"))
	recycled := c.entries[d("GET k")]
	c.Invalidate([]byte("k"))
	for i := 0; ; i++ {
		op := d(fmt.Sprintf("GET %d", i))
		c.Put(op, []byte("VALUE w"), []string{"k"})
		if c.entries[op] == recycled {
			break
		}
		if i == maxFree {
			t.Fatal("no install reused the invalidated entry")
		}
	}
	if string(view) != "VALUE v" || msg.DigestOf(view) != digest {
		t.Errorf("the view of an invalidated entry reads %q after its entry was reused", view)
	}
}

// refCache is the cache as it was before entries and their index links were
// recycled: a map of operation digests per key, and a new entry per install.
// FuzzCacheMatchesReference holds the real one to it.
type refCache struct {
	capacity int64
	used     int64

	entries map[msg.Digest]*refEntry
	byKey   map[string]map[msg.Digest]struct{}

	// LRU list.
	head, tail *refEntry

	stats CacheStats
}

type refEntry struct {
	op    msg.Digest
	reply []byte   // reply and keys are one allocation (ownReply)
	keys  msg.Keys // the state parts the entry is indexed under
	size  int64

	// replyDigest is the digest of reply once a fast read or a cache query
	// has asked for it (GetDigest). An entry's reply never changes — a new
	// result is a new entry — so it is hashed at most once.
	replyDigest msg.Digest
	digested    bool

	prev, next *refEntry
}

// newRefCache creates a cache with the given byte capacity (≤0 means 64 MiB,
// half the EPC of the paper's hardware).
func newRefCache(capacity int64) *refCache {
	if capacity <= 0 {
		capacity = 64 << 20
	}
	return &refCache{
		capacity: capacity,
		entries:  make(map[msg.Digest]*refEntry),
		byKey:    make(map[string]map[msg.Digest]struct{}),
	}
}

// Get returns the cached reply for an operation digest, or nil.
func (c *refCache) Get(op msg.Digest) []byte {
	if e := c.hit(op); e != nil {
		return e.reply
	}
	return nil
}

// GetDigest is Get for the fast-read protocol, which compares replies by
// digest: it returns the reply's digest with it (zero on a miss).
func (c *refCache) GetDigest(op msg.Digest) ([]byte, msg.Digest) {
	e := c.hit(op)
	if e == nil {
		return nil, msg.Digest{}
	}
	if !e.digested {
		e.replyDigest, e.digested = msg.DigestOf(e.reply), true
	}
	return e.reply, e.replyDigest
}

// hit looks op up, counts the outcome and marks a found entry used.
func (c *refCache) hit(op msg.Digest) *refEntry {
	e, ok := c.entries[op]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.moveToFront(e)
	return e
}

// Put installs a voted read result under the state parts the read depends
// on, named as strings.
func (c *refCache) Put(op msg.Digest, reply []byte, keys []string) {
	c.PutKeys(op, reply, msg.AppendKeys(nil, keys))
}

// PutKeys is Put for a key list in the wire form a reply carries it in. The
// cache is where a reply is kept, so it copies what it is given: callers pass
// views of buffers that do not outlive their call. A key costs a string of
// its own only when it is new to the index.
func (c *refCache) PutKeys(op msg.Digest, reply []byte, keys msg.Keys) {
	if e, ok := c.entries[op]; ok {
		c.remove(e)
	}
	e := &refEntry{op: op, size: int64(len(reply)) + 64}
	e.reply, e.keys = ownReply(reply, keys)
	c.entries[op] = e
	for k := range e.keys.All() {
		set, ok := c.byKey[string(k)]
		if !ok {
			set = make(map[msg.Digest]struct{})
			c.byKey[string(k)] = set
		}
		set[op] = struct{}{}
	}
	c.pushFront(e)
	c.used += e.size
	for c.used > c.capacity && c.tail != nil {
		c.stats.Evictions++
		c.remove(c.tail)
	}
}

// InvalidateKeys drops every entry that depends on one of the given state
// parts. It is called while authenticating a write reply, before the write's
// effects can become visible to any client.
func (c *refCache) InvalidateKeys(keys msg.Keys) {
	for k := range keys.All() {
		c.Invalidate(k)
	}
}

// Invalidate drops every entry that depends on the given state part; key is
// only looked at.
func (c *refCache) Invalidate(key []byte) {
	set, ok := c.byKey[string(key)]
	if !ok {
		return
	}
	for op := range set {
		if e, ok := c.entries[op]; ok {
			c.stats.Invalidations++
			c.remove(e)
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *refCache) Stats() CacheStats {
	s := c.stats
	s.Entries = len(c.entries)
	s.UsedBytes = c.used
	return s
}

func (c *refCache) remove(e *refEntry) {
	delete(c.entries, e.op)
	for k := range e.keys.All() {
		if set, ok := c.byKey[string(k)]; ok {
			delete(set, e.op)
			if len(set) == 0 {
				delete(c.byKey, string(k))
			}
		}
	}
	c.unlink(e)
	c.used -= e.size
}

func (c *refCache) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *refCache) pushFront(e *refEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *refCache) moveToFront(e *refEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// FuzzCacheMatchesReference decodes its input into Put, PutKeys, Get,
// GetDigest, Invalidate and InvalidateKeys calls over a few operations, keys
// and replies — key lists with several keys and with the same key twice, a
// capacity a handful of entries overflow, a reply larger than the whole
// cache — and makes each call on the cache and on refCache. After every step
// the results, Stats, the LRU order and the entries indexed under each key
// must agree, and every reply handed out must still read what it read then.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := []string{"a", "bb", "ccc", "a-longer-key"}
		replies := [][]byte{nil, []byte("VALUE 1"), bytes.Repeat([]byte("v"), 60), bytes.Repeat([]byte("w"), 130), make([]byte, 400)}
		const capacity = 400
		c, ref := NewCache(capacity), newRefCache(capacity)
		var keyBuf, replyBuf []byte
		type view struct{ got, want []byte }
		var views []view
		keyList := func(b byte) []string {
			list := make([]string, b&3)
			for i := range list {
				list[i] = keys[b>>(2+2*i)&3]
			}
			return list
		}
		for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
			kind, op := data[0]&7, d(fmt.Sprintf("op%d", data[0]>>3%6))
			reply, list := replies[int(data[1])%len(replies)], keyList(data[2])
			switch kind {
			case 0:
				c.Put(op, reply, list)
				ref.Put(op, reply, list)
			case 1, 2:
				// Views of buffers the caller overwrites after the call.
				replyBuf = append(replyBuf[:0], reply...)
				keyBuf = msg.AppendKeys(keyBuf, list)
				c.PutKeys(op, replyBuf, keyBuf)
				ref.PutKeys(op, replyBuf, keyBuf)
				for i := range replyBuf {
					replyBuf[i] ^= 0xA5
				}
				for i := range keyBuf {
					keyBuf[i] ^= 0xA5
				}
			case 3:
				got, want := c.Get(op), ref.Get(op)
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("step %d: Get = %q, reference %q", step, got, want)
				}
				views = append(views, view{got, bytes.Clone(got)})
			case 4:
				got, gotDigest := c.GetDigest(op)
				want, wantDigest := ref.GetDigest(op)
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) || gotDigest != wantDigest {
					t.Fatalf("step %d: GetDigest = %q %s, reference %q %s", step, got, gotDigest.Short(), want, wantDigest.Short())
				}
				views = append(views, view{got, bytes.Clone(got)})
			case 5:
				key := []byte(append(keys, "absent")[int(data[1])%(len(keys)+1)])
				c.Invalidate(key)
				ref.Invalidate(key)
			default:
				keyBuf = msg.AppendKeys(keyBuf, list)
				c.InvalidateKeys(keyBuf)
				ref.InvalidateKeys(keyBuf)
			}
			if got, want := c.Stats(), ref.Stats(); got != want {
				t.Fatalf("step %d: Stats = %+v, reference %+v", step, got, want)
			}
			if len(c.free) > maxFree {
				t.Fatalf("step %d: %d entries on the free list, cap %d", step, len(c.free), maxFree)
			}
			var order, refOrder []msg.Digest
			for e := c.head; e != nil; e = e.next {
				order = append(order, e.op)
			}
			for e := ref.head; e != nil; e = e.next {
				refOrder = append(refOrder, e.op)
			}
			if !slices.Equal(order, refOrder) {
				t.Fatalf("step %d: LRU order differs from the reference's", step)
			}
			if len(c.byKey) != len(ref.byKey) {
				t.Fatalf("step %d: %d keys indexed, reference %d", step, len(c.byKey), len(ref.byKey))
			}
			for key, ops := range ref.byKey {
				listed := make(map[msg.Digest]struct{})
				for l := c.byKey[key]; l != nil; l = l.next {
					if l.key != key || c.entries[l.entry.op] != l.entry {
						t.Fatalf("step %d: key %q lists a link of key %q or of an entry not cached", step, key, l.key)
					}
					listed[l.entry.op] = struct{}{}
				}
				if !maps.Equal(listed, ops) {
					t.Fatalf("step %d: key %q lists %d entries, reference %d", step, key, len(listed), len(ops))
				}
			}
		}
		for i, v := range views {
			if !bytes.Equal(v.got, v.want) {
				t.Fatalf("reply %d handed out reads %q, was %q", i, v.got, v.want)
			}
		}
	})
}
