package troxy

import (
	"bytes"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
)

// Cache is the managed fast-read cache (Section IV). Entries are indexed by
// the digest of the client operation and additionally by the state parts the
// operation reads, so that a write touching a state part can invalidate
// every cached read that depends on it.
//
// Two invariants keep the cache linearizable (Section IV-B):
//
//   - An entry is a result a Troxy vouches for: its own replica's read
//     result, installed while authenticating the reply (AuthenticateReply),
//     or a voted result (f+1 matching replies of an ordered execution) at the
//     Troxy that voted. A fast read answers only when f remote Troxies hold
//     a matching entry, so a faulty replica, which can poison no entry but
//     its own Troxy's, makes fast reads fall back but never answer wrongly.
//   - Writes invalidate but never update: invalidation happens inside
//     AuthenticateReply, i.e. before the executing replica's reply can count
//     toward the write's quorum, so by the time a write completes, f+1
//     Troxies have dropped the stale entry.
//
// The cache tracks its memory footprint and evicts least-recently-used
// entries beyond its byte budget: the prototype keeps allocations small to
// avoid EPC paging (Section V-A). So churn allocates nothing but the reply a
// new result needs: a removed entry — invalidated, evicted or replaced — goes
// onto a free list with its index links and their key strings, and installing
// a result the cache already holds byte for byte only marks it used.
type Cache struct {
	capacity int64
	used     int64

	entries map[msg.Digest]*cacheEntry
	// byKey holds, for each state part some entry depends on, the first link
	// of that part's list: one link per key of each such entry. A part is
	// indexed exactly while its list is not empty.
	byKey map[string]*keyLink

	// LRU list.
	head, tail *cacheEntry

	free []*cacheEntry // removed entries, at most maxFree

	stats CacheStats
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Evictions     uint64
	Entries       int
	UsedBytes     int64
}

type cacheEntry struct {
	op    msg.Digest
	reply []byte   // reply and keys are one allocation (ownReply)
	keys  msg.Keys // the state parts the entry is indexed under
	size  int64

	// replyDigest is the digest of reply once a fast read or a cache query
	// has asked for it (GetDigest). An entry's reply never changes — a new
	// result is a new slab — so it is hashed at most once.
	replyDigest msg.Digest
	digested    bool

	// links are the entry's places in byKey's lists, one per key in keys'
	// order. They outlive the entry on the free list, key strings included,
	// for the next entry installed in it.
	links []keyLink

	prev, next *cacheEntry
}

// keyLink is one entry's link in the list of the entries that depend on key.
type keyLink struct {
	key        string
	entry      *cacheEntry
	prev, next *keyLink
}

// NewCache creates a cache with the given byte capacity (≤0 means 64 MiB,
// half the EPC of the paper's hardware).
func NewCache(capacity int64) *Cache {
	if capacity <= 0 {
		capacity = 64 << 20
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[msg.Digest]*cacheEntry),
		byKey:    make(map[string]*keyLink),
	}
}

// Get returns the cached reply for an operation digest, or nil.
func (c *Cache) Get(op msg.Digest) []byte {
	if e := c.hit(op); e != nil {
		return e.reply
	}
	return nil
}

// GetDigest is Get for the fast-read protocol, which compares replies by
// digest: it returns the reply's digest with it (zero on a miss).
func (c *Cache) GetDigest(op msg.Digest) ([]byte, msg.Digest) {
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
func (c *Cache) hit(op msg.Digest) *cacheEntry {
	e, ok := c.entries[op]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.moveToFront(e)
	return e
}

// ownReply copies a reply's result and key list — views of a buffer that
// does not outlive the call — into one allocation for whoever keeps them.
func ownReply(result []byte, keys msg.Keys) ([]byte, msg.Keys) {
	slab := make([]byte, len(result)+len(keys))
	n := copy(slab, result)
	copy(slab[n:], keys)
	return slab[:n:n], msg.Keys(slab[n:])
}

// Put installs a read result under the state parts the read depends on,
// named as strings.
func (c *Cache) Put(op msg.Digest, reply []byte, keys []string) {
	c.PutKeys(op, reply, msg.AppendKeys(nil, keys))
}

// PutKeys is Put for a key list in the wire form a reply carries it in. The
// cache is where a reply is kept, so it copies what it is given: callers pass
// views of buffers that do not outlive their call. The copy is a slab of its
// own, never a removed entry's: a fast read holds its reply across calls
// (startFastRead). Installing the reply and key list an entry already holds
// only marks it used.
func (c *Cache) PutKeys(op msg.Digest, reply []byte, keys msg.Keys) {
	if e, ok := c.entries[op]; ok {
		if bytes.Equal(e.reply, reply) && bytes.Equal(e.keys, keys) {
			c.moveToFront(e)
			return
		}
		c.remove(e)
	}
	e := take(&c.free)
	e.op, e.size = op, int64(len(reply))+64
	e.reply, e.keys = ownReply(reply, keys)
	c.entries[op] = e
	c.index(e)
	c.pushFront(e)
	c.used += e.size
	for c.used > c.capacity && c.tail != nil {
		c.stats.Evictions++
		c.remove(c.tail)
	}
}

// index puts e at the front of the list of each of its keys. A link's key
// string is the one it kept from an earlier entry when the bytes match, else
// the one the index already holds, and only for a key new to both a string
// of its own.
func (c *Cache) index(e *cacheEntry) {
	n := 0 // what the list holds: Len is only what a host-supplied list claims
	for range e.keys.All() {
		n++
	}
	if cap(e.links) < n {
		e.links = make([]keyLink, n)
	}
	e.links = e.links[:n]
	i := 0
	for k := range e.keys.All() {
		l, first := &e.links[i], c.byKey[string(k)]
		i++
		switch {
		case l.key == string(k):
		case first != nil:
			l.key = first.key
		default:
			l.key = string(k)
		}
		l.entry, l.prev, l.next = e, nil, first
		if first != nil {
			first.prev = l
		}
		c.byKey[l.key] = l
	}
}

// InvalidateKeys drops every entry that depends on one of the given state
// parts. It is called while authenticating a write reply, before the write's
// effects can become visible to any client.
func (c *Cache) InvalidateKeys(keys msg.Keys) {
	for k := range keys.All() {
		c.Invalidate(k)
	}
}

// Invalidate drops every entry that depends on the given state part; key is
// only looked at.
func (c *Cache) Invalidate(key []byte) {
	for l := c.byKey[string(key)]; l != nil; l = c.byKey[string(key)] {
		c.stats.Invalidations++
		c.remove(l.entry)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	s := c.stats
	s.Entries = len(c.entries)
	s.UsedBytes = c.used
	return s
}

// remove drops e from the cache and puts it on the free list. Its slab is
// dropped, not kept: a fast read may still hold the reply in it.
func (c *Cache) remove(e *cacheEntry) {
	delete(c.entries, e.op)
	for i := range e.links {
		c.unindex(&e.links[i])
	}
	c.unlink(e)
	c.used -= e.size
	e.reply, e.keys, e.digested = nil, nil, false
	give(&c.free, e)
}

// unindex takes l out of its key's list, and the key out of the index with
// its last link.
func (c *Cache) unindex(l *keyLink) {
	if l.next != nil {
		l.next.prev = l.prev
	}
	switch {
	case l.prev != nil:
		l.prev.next = l.next
	case l.next != nil:
		c.byKey[l.key] = l.next
	default:
		delete(c.byKey, l.key)
	}
	l.entry, l.prev, l.next = nil, nil, nil
}

func (c *Cache) unlink(e *cacheEntry) {
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

func (c *Cache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// Monitor tracks the fast-read fallback rate in a sliding window and decides
// when to abandon the optimization. "We measure the cache miss rate inside
// the Troxy. If the miss rate reaches a configurable system constant, the
// fast read optimization is avoided in favor of a traditional protocol run"
// (Section IV-B); Section VI-C3 adds the automatic switch back.
type Monitor struct {
	window    int
	threshold float64
	probe     time.Duration

	outcomes []bool // true = fallback (miss or conflict)
	idx      int
	filled   int
	// fallbacks counts the true outcomes among the filled ones: the
	// outcomes written since the window was last reset, which idx has not
	// yet wrapped around to overwrite.
	fallbacks int

	disabledUntil time.Duration
	switches      uint64
}

// NewMonitor creates a conflict monitor. window is the number of recent
// fast-read attempts considered; threshold is the fallback fraction above
// which fast reads are disabled; probe is how long the total-order mode
// lasts before fast reads are retried.
func NewMonitor(window int, threshold float64, probe time.Duration) *Monitor {
	if window <= 0 {
		window = 256
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	if probe <= 0 {
		probe = time.Second
	}
	return &Monitor{
		window:    window,
		threshold: threshold,
		probe:     probe,
		outcomes:  make([]bool, window),
	}
}

// Allow reports whether the fast path should be attempted now.
func (m *Monitor) Allow(now time.Duration) bool {
	return now >= m.disabledUntil
}

// Record notes the outcome of a fast-read attempt; fallback is true when the
// attempt missed the cache or failed remote matching.
//
// It is O(1): the count of fallbacks in the window follows the outcomes that
// enter it and, once it is full, the ones the new outcomes overwrite.
func (m *Monitor) Record(now time.Duration, fallback bool) {
	if m.filled == m.window && m.outcomes[m.idx] {
		m.fallbacks-- // the oldest outcome leaves the window
	}
	m.outcomes[m.idx] = fallback
	if fallback {
		m.fallbacks++
	}
	m.idx = (m.idx + 1) % m.window
	if m.filled < m.window {
		m.filled++
	}
	if m.filled < m.window/4 || m.filled == 0 {
		return // not enough signal yet
	}
	if float64(m.fallbacks)/float64(m.filled) >= m.threshold {
		m.disabledUntil = now + m.probe
		m.switches++
		// Reset the window so the post-probe decision uses fresh data.
		m.filled = 0
		m.idx = 0
		m.fallbacks = 0
	}
}

// Switches returns how often the monitor fell back to total-order mode.
func (m *Monitor) Switches() uint64 { return m.switches }
