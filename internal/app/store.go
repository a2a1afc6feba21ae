package app

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Store is a deterministic key-value store speaking a small text protocol:
//
//	GET <key>
//	PUT <key> <value>
//	DEL <key>
//
// GET is the only read. Keys must not contain spaces; values may.
//
// The state lives in storeShards hash shards, each a run of entries sorted by
// (key hash, key). The layout is a function of the contents alone — never of
// the order operations arrived in — which is what lets a checkpoint be cut in
// time proportional to what changed since the last one (storecheckpoint.go).
type Store struct {
	shards [storeShards]storeShard

	// gen is the store's generation. It goes up wherever entries come to be
	// seen by something besides the live store — a checkpoint, a fork (in
	// both stores), a snapshot iterator, and a restore — so an entry whose
	// value was allocated in the current generation is the live store's
	// alone, and put may overwrite that value in place.
	gen uint64

	// Scratch space of Checkpoint, kept so that a steady-state cut allocates
	// only what the checkpoint retains.
	encBuf, digestBuf []byte
}

// storeShards is the number of hash shards. It shapes the checkpoint chunks
// every replica must cut identically, hence a constant and not a setting.
const storeShards = 64

// storeEntry is one key with its value. The key sits in a one-element array
// of its own so that Keys can hand out a slice of it without allocating; the
// array is never written after the entry is created, and an overwrite keeps
// it. The value is a buffer the store owns, allocated in generation gen: in
// the store's current generation nothing else can see it and an overwrite
// that fits writes it in place; from an older one a checkpoint, a fork or a
// snapshot iterator may hold it, and it is never written again.
type storeEntry struct {
	name  *[1]string
	value []byte
	gen   uint64
}

func newEntry(key string, value []byte, gen uint64) storeEntry {
	return storeEntry{&[1]string{key}, value, gen}
}

func (e *storeEntry) key() string { return e.name[0] }

// storeShard is one hash shard. Once a checkpoint has captured entries, the
// slice is shared with that immutable view and the next write clones it
// first. The clone copies the entries, not their keys or values: keys are
// never written, and a value allocated before the capture is never written
// either (storeEntry.gen), so the next put to it allocates a new one. digests
// is never shared: it belongs to the live shard alone.
type storeShard struct {
	entries []storeEntry // sorted by (keyHash(key), key)
	// hashes[i] is keyHash(entries[i].key). A lookup searches this dense
	// array and touches a key only to confirm the match; searching the
	// keys themselves costs a cache miss per probe.
	hashes []uint32
	// digests[i] is the SHA-256 of entries[i]'s canonical encoding once a
	// checkpoint has needed it; zero means "not computed since the write".
	digests []msg.Digest
	shared  bool // entries is referenced by a checkpoint
	dirty   bool // written since chunks was cut
	resized bool // an entry was added or removed since chunks was cut
	cutSize int  // chunk size chunks was cut for
	chunks  []storeChunk
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{} }

// NewStoreFactory returns a Factory producing empty stores.
func NewStoreFactory() Factory {
	return func() Application { return NewStore() }
}

var _ Application = (*Store)(nil)
var _ Forker = (*Store)(nil)

// keyHash is FNV-1a through the murmur3 finalizer (on its own FNV spreads
// sequentially named keys over the shards unevenly, 2 to 42 of 1 024). Its
// top six bits pick the shard, all of it orders the entries within one.
// Every replica must compute the same value, so no seeded hash.
func keyHash[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// shardBits is 32 - log2(storeShards): a hash's top bits pick the shard.
const shardBits = 26

// shard returns the shard a key with hash h lives in.
func (s *Store) shard(h uint32) *storeShard { return &s.shards[h>>shardBits] }

// compareKey orders a stored key against a looked-up one bytewise, as
// strings.Compare does, without converting either.
func compareKey[K string | []byte](a string, b K) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// find returns the position of the key with hash h in the shard, or where
// it would go.
func find[K string | []byte](sh *storeShard, h uint32, key K) (int, bool) {
	lo, hi := 0, len(sh.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sh.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < len(sh.hashes) && sh.hashes[lo] == h; lo++ {
		if c := compareKey(sh.entries[lo].key(), key); c >= 0 {
			return lo, c == 0
		}
	}
	return lo, false
}

// own makes the shard writable: entries shared with a checkpoint are cloned,
// so the checkpoint keeps seeing the state it captured.
func (sh *storeShard) own() {
	if sh.shared {
		sh.entries = append([]storeEntry(nil), sh.entries...)
		sh.shared = false
	}
	sh.dirty = true
}

// Fork implements Forker. Fork and store share every shard's entries the
// way a checkpoint and the store do, each cloning a shard before its first
// write to it; only the per-entry hashes and digests (36 bytes an entry),
// which are updated in place, are copied. The fork cuts its first
// checkpoint's chunk tables from those digests without hashing an entry.
func (s *Store) Fork() Application {
	s.gen++
	f := &Store{gen: s.gen}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.shared = true
		f.shards[i] = storeShard{entries: sh.entries, shared: true, dirty: true,
			hashes: slices.Clone(sh.hashes), digests: slices.Clone(sh.digests)}
	}
	return f
}

// lookup returns the entry for key, or nil.
func (s *Store) lookup(key []byte) *storeEntry {
	h := keyHash(key)
	sh := s.shard(h)
	if i, found := find(sh, h, key); found {
		return &sh.entries[i]
	}
	return nil
}

// put stores value under key. The store is where a value is kept, so this is
// where the operation's bytes are copied: the value always, the key only
// when it is new. The value lands in the entry's own buffer when nothing
// else can see it and it fits, and in a new one otherwise.
func (s *Store) put(key, value []byte) {
	h := keyHash(key)
	sh := s.shard(h)
	i, found := find(sh, h, key)
	sh.own()
	if found {
		e := &sh.entries[i]
		if e.gen == s.gen && cap(e.value) >= len(value) {
			e.value = append(e.value[:0], value...)
		} else {
			e.value, e.gen = bytes.Clone(value), s.gen
		}
		sh.digests[i] = msg.Digest{}
		return
	}
	sh.entries = slices.Insert(sh.entries, i, newEntry(string(key), bytes.Clone(value), s.gen))
	sh.hashes = slices.Insert(sh.hashes, i, h)
	sh.digests = slices.Insert(sh.digests, i, msg.Digest{})
	sh.resized = true
}

func (s *Store) del(key []byte) bool {
	h := keyHash(key)
	sh := s.shard(h)
	i, found := find(sh, h, key)
	if found {
		sh.own()
		sh.entries = slices.Delete(sh.entries, i, i+1)
		sh.hashes = slices.Delete(sh.hashes, i, i+1)
		sh.digests = slices.Delete(sh.digests, i, i+1)
		sh.resized = true
	}
	return found
}

// storeLoader builds a store's shards from entries arriving in any order —
// a restore. Inserting them one by one would shift half a shard per entry
// (a snapshot is in key order, the shards are in hash order); the loader
// collects them and sorts each shard once. It copies each value, once, into
// a buffer of the store's: what it is handed is a view of a snapshot or a
// chunk. Its entries are of generation 0, which the restore leaves behind.
type storeLoader struct {
	shards [storeShards][]loadedEntry
}

type loadedEntry struct {
	hash uint32
	storeEntry
}

func (l *storeLoader) add(key string, value []byte) {
	h := keyHash(key)
	l.shards[h>>shardBits] = append(l.shards[h>>shardBits], loadedEntry{h, newEntry(key, bytes.Clone(value), 0)})
}

// load replaces the store's contents with what l collected.
func (s *Store) load(l *storeLoader) {
	s.shards = l.build()
	s.gen++
}

// build returns the shards; of entries with the same key the last added wins.
func (l *storeLoader) build() (shards [storeShards]storeShard) {
	for i, in := range l.shards {
		slices.SortStableFunc(in, func(a, b loadedEntry) int {
			if c := cmp.Compare(a.hash, b.hash); c != 0 {
				return c
			}
			return strings.Compare(a.key(), b.key())
		})
		sh := &shards[i]
		for j, e := range in {
			if j+1 < len(in) && in[j+1].hash == e.hash && in[j+1].key() == e.key() {
				continue
			}
			sh.entries = append(sh.entries, e.storeEntry)
			sh.hashes = append(sh.hashes, e.hash)
		}
		sh.digests = make([]msg.Digest, len(sh.entries))
		sh.dirty = true
	}
	return shards
}

// storeVerb is a parsed operation's kind; the zero value is a malformed one.
type storeVerb uint8

const (
	verbGet storeVerb = iota + 1
	verbPut
	verbDel
)

// cutSpace splits b around its first space, like bytes.Cut.
func cutSpace(b []byte) (before, after []byte, found bool) {
	for i, c := range b {
		if c == ' ' {
			return b[:i], b[i+1:], true
		}
	}
	return b, nil, false
}

// parseStoreOp splits an operation into views of op: it runs several times
// per request on every replica (classification, execution, key extraction)
// and allocates nothing.
func parseStoreOp(op []byte) (verb storeVerb, key, value []byte) {
	name, rest, _ := cutSpace(op)
	if len(name) != 3 {
		return 0, nil, nil
	}
	switch [3]byte(name) {
	case [3]byte{'G', 'E', 'T'}:
		verb = verbGet
	case [3]byte{'D', 'E', 'L'}:
		verb = verbDel
	case [3]byte{'P', 'U', 'T'}:
		key, value, found := cutSpace(rest)
		if !found || len(key) == 0 {
			return 0, nil, nil
		}
		return verbPut, key, value
	default:
		return 0, nil, nil
	}
	// GET and DEL take exactly one key, which holds no space.
	if _, _, spaced := cutSpace(rest); spaced || len(rest) == 0 {
		return 0, nil, nil
	}
	return verb, rest, nil
}

// The results that do not depend on the state are shared by every call that
// returns them (Application.Execute: callers never modify a result), and
// cap-limited, so an append to one reallocates instead of writing behind it.
var (
	resultOK       = []byte("OK")[:2:2]
	resultNotFound = []byte("NOTFOUND")[:8:8]
)

// Execute implements Application.
func (s *Store) Execute(op []byte) []byte {
	verb, key, value := parseStoreOp(op)
	switch verb {
	case verbGet:
		e := s.lookup(key)
		if e == nil {
			return resultNotFound
		}
		return append(append(make([]byte, 0, len("VALUE ")+len(e.value)), "VALUE "...), e.value...)
	case verbPut:
		s.put(key, value)
		return resultOK
	case verbDel:
		if !s.del(key) {
			return resultNotFound
		}
		return resultOK
	default:
		return badOp(op)
	}
}

// IsRead implements Application.
func (s *Store) IsRead(op []byte) bool {
	verb, _, _ := parseStoreOp(op)
	return verb == verbGet
}

// Keys implements Application. For a key the store holds, the result is the
// entry's own one-element key slice — shared and never to be written, and no
// allocation; only an operation on an absent key builds one.
func (s *Store) Keys(op []byte) []string {
	verb, key, _ := parseStoreOp(op)
	if verb == 0 {
		return nil
	}
	if e := s.lookup(key); e != nil {
		return e.name[:]
	}
	return []string{string(key)}
}

// sorted returns every entry in global key order, the order of the
// monolithic snapshot format.
func (s *Store) sorted() []storeEntry {
	all := make([]storeEntry, 0, s.Len())
	for i := range s.shards {
		all = append(all, s.shards[i].entries...)
	}
	slices.SortFunc(all, func(a, b storeEntry) int { return strings.Compare(a.key(), b.key()) })
	return all
}

// appendEntry appends the canonical encoding of one entry: the key and the
// value as length-prefixed strings. Snapshots, checkpoint records and entry
// digests all use it.
func appendEntry(b []byte, e *storeEntry) []byte {
	b = binary.LittleEndian.AppendUint32(wire.AppendString(b, e.key()), uint32(len(e.value)))
	return append(b, e.value...)
}

// entrySize is the length of appendEntry's output.
func entrySize(e *storeEntry) int { return 8 + len(e.key()) + len(e.value) }

// Snapshot implements Application. Entries are encoded in sorted key order
// so all replicas produce identical snapshots.
func (s *Store) Snapshot() []byte {
	all := s.sorted()
	size := 4
	for i := range all {
		size += entrySize(&all[i])
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(all)))
	for i := range all {
		out = appendEntry(out, &all[i])
	}
	return out
}

// Restore implements Application.
func (s *Store) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.SliceLen()
	var staged storeLoader
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.Bytes32()
		if r.Err() != nil {
			break
		}
		staged.add(k, v)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("app: restore store: %w", err)
	}
	s.load(&staged)
	return nil
}

// Len returns the number of stored keys (used by tests and examples).
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].entries)
	}
	return n
}

var _ Incremental = (*Store)(nil)

// SnapshotIter implements Incremental. The concatenation of the yielded
// pieces is byte-identical to Snapshot(): a U32 entry count followed by
// sorted (key, value) string pairs. Entries are encoded lazily, so a
// gigabyte-scale store never materializes its full snapshot; only the sorted
// entry list (keys and values shared with the store) is captured up front,
// and the store's generation moves on so that no later put writes a value
// the iterator has yet to encode.
func (s *Store) SnapshotIter(maxPiece int) ChunkIterator {
	s.gen++
	// At least one entry per piece, or a bound below one would never finish.
	return &storeIter{all: s.sorted(), max: max(maxPiece, 1)}
}

type storeIter struct {
	all    []storeEntry
	i      int
	max    int
	header bool
}

func (it *storeIter) Next() ([]byte, bool) {
	if it.header && it.i >= len(it.all) {
		return nil, false
	}
	out := make([]byte, 0, min(it.max+256, 64<<10))
	if !it.header {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(it.all)))
		it.header = true
	}
	for it.i < len(it.all) && len(out) < it.max {
		out = appendEntry(out, &it.all[it.i])
		it.i++
	}
	return out, true
}

// RestoreSink implements Incremental. The sink parses the snapshot stream
// entry by entry as bytes arrive, keeping only the tail of an entry split
// across Write calls, so peak extra memory is one entry plus the staged
// state — never a second full copy of the encoded snapshot.
func (s *Store) RestoreSink() RestoreSink {
	return &storeSink{s: s, total: -1}
}

type storeSink struct {
	s      *Store
	carry  []byte
	staged storeLoader
	total  int // declared entry count; -1 until the header has been read
	got    int
	err    error
}

func (sk *storeSink) Write(p []byte) error {
	if sk.err != nil {
		return sk.err
	}
	sk.carry = append(sk.carry, p...)
	for {
		if sk.total < 0 {
			if len(sk.carry) < 4 {
				return nil
			}
			r := wire.NewReader(sk.carry[:4])
			sk.total = int(r.U32())
			sk.carry = sk.carry[4:]
			continue
		}
		if sk.got >= sk.total {
			if len(sk.carry) > 0 {
				sk.err = fmt.Errorf("app: restore store: %d trailing bytes", len(sk.carry))
				return sk.err
			}
			sk.carry = nil
			return nil
		}
		r := wire.NewReader(sk.carry)
		k := r.String()
		v := r.Bytes32()
		if errors.Is(r.Err(), wire.ErrTooLarge) {
			sk.err = fmt.Errorf("app: restore store: %w", r.Err())
			return sk.err
		}
		if r.Err() != nil {
			// Entry split across Write calls: keep the partial bytes and
			// wait for more. (Upstream chunk digests guarantee the stream
			// terminates, and Commit rejects a still-incomplete entry.)
			return nil
		}
		sk.carry = sk.carry[len(sk.carry)-r.Remaining():]
		sk.staged.add(k, v)
		sk.got++
	}
}

func (sk *storeSink) Commit() error {
	if sk.err != nil {
		return sk.err
	}
	if sk.total < 0 || sk.got < sk.total || len(sk.carry) > 0 {
		sk.err = fmt.Errorf("app: restore store: truncated stream (%d/%d entries, %d carry bytes)",
			sk.got, sk.total, len(sk.carry))
		return sk.err
	}
	sk.s.load(&sk.staged)
	sk.err = errors.New("app: restore sink already committed")
	return nil
}
