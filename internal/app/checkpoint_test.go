package app

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
)

// layoutDigest hashes everything a manifest records about a checkpoint —
// chunk count, lengths, digests, in order — and checks on the way that every
// chunk encodes to the recorded length and digest.
func layoutDigest(t testing.TB, cp Checkpoint) msg.Digest {
	t.Helper()
	h := sha256.New()
	for i := 0; i < cp.NumChunks(); i++ {
		d, size := cp.ChunkInfo(i)
		data := cp.Chunk(i)
		if len(data) != size {
			t.Fatalf("chunk %d encodes to %d bytes, table says %d", i, len(data), size)
		}
		if got, err := ChunkDigest(data); err != nil || got != d {
			t.Fatalf("chunk %d: ChunkDigest = %x, %v; table says %x", i, got, err, d)
		}
		binary.Write(h, binary.LittleEndian, uint32(size))
		h.Write(d[:])
	}
	var out msg.Digest
	h.Sum(out[:0])
	return out
}

// restoredFrom builds a fresh application of dst's kind from cp's chunks.
func restoredFrom(t testing.TB, dst Application, cp Checkpoint) Application {
	t.Helper()
	sink := ChunkSinkOf(dst)
	for i := 0; i < cp.NumChunks(); i++ {
		if err := sink.Write(cp.Chunk(i)); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if err := sink.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return dst
}

// The checkpoint contract's central property: the layout depends on the
// contents only. Stores that reach the same contents through different
// histories — different operation orders, keys deleted and put back, values
// overwritten on the way, checkpoints cut in between, the history continued
// on a fork or beside one that is written to — and a store restored from the
// chunks all cut the same checkpoint.
func TestStoreCheckpointDependsOnContentsOnly(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chunkSize := []int{1, 40, 200, 4096}[rng.Intn(4)]
		final := make(map[string]string)
		for i, n := 0, 1+rng.Intn(400); i < n; i++ {
			final[fmt.Sprintf("key-%d", rng.Intn(1000))] = fmt.Sprintf("v%d-%s", i, bytes.Repeat([]byte{'x'}, rng.Intn(90)))
		}
		keys := make([]string, 0, len(final))
		for k := range final {
			keys = append(keys, k)
		}

		build := func(detours bool) *Store {
			s := NewStore()
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for i, k := range keys {
				if detours {
					switch rng.Intn(4) {
					case 0: // a value that is overwritten below
						s.Execute([]byte("PUT " + k + " interim"))
					case 1: // a key that does not survive
						s.Execute([]byte("PUT gone-" + k + " x"))
					case 2: // deleted and put back
						s.Execute([]byte("PUT " + k + " " + final[k]))
						s.Execute([]byte("DEL " + k))
					}
					if i%50 == 7 {
						s.Checkpoint(chunkSize) // caches digests, shares shards
					}
					if i%50 == 31 {
						// Go on with the fork or with the original; what the
						// other one is given must not show.
						other := s.Fork().(*Store)
						if rng.Intn(2) == 0 {
							s, other = other, s
						}
						for _, j := range rng.Perm(len(keys))[:min(len(keys), 20)] {
							other.Execute([]byte("PUT " + keys[j] + " stray"))
							other.Execute([]byte("DEL " + keys[(j+1)%len(keys)]))
							other.Execute([]byte("PUT stray-" + keys[j] + " x"))
						}
						other.Checkpoint(chunkSize)
					}
				}
				s.Execute([]byte("PUT " + k + " " + final[k]))
			}
			for _, k := range keys {
				s.Execute([]byte("DEL gone-" + k)) // NOTFOUND for most
			}
			return s
		}
		a, b := build(false), build(true)
		b.Checkpoint(chunkSize + 1) // a cut at another size must not stick
		cpA, cpB := a.Checkpoint(chunkSize), b.Checkpoint(chunkSize)
		want := layoutDigest(t, cpA)
		if got := layoutDigest(t, cpB); got != want {
			t.Fatalf("seed %d: same contents, different histories, different checkpoints", seed)
		}
		c := restoredFrom(t, NewStore(), cpB).(*Store)
		if got := layoutDigest(t, c.Checkpoint(chunkSize)); got != want {
			t.Fatalf("seed %d: a store restored from the chunks cuts a different checkpoint", seed)
		}
		if !bytes.Equal(c.Snapshot(), a.Snapshot()) {
			t.Fatalf("seed %d: restored store differs from the source", seed)
		}
		// Nothing changed, so cutting again hashes nothing.
		if n := a.Checkpoint(chunkSize).HashedBytes(); n != 0 {
			t.Fatalf("seed %d: re-cutting an unchanged store hashed %d bytes", seed, n)
		}
		// The chunk size bounds every chunk that is not one oversize record.
		for i := 0; i < cpA.NumChunks(); i++ {
			records := 0
			EachRecord(cpA.Chunk(i), func([]byte) error { records++; return nil })
			if _, size := cpA.ChunkInfo(i); size > chunkSize && records != 1 {
				t.Fatalf("seed %d: chunk %d holds %d records in %d bytes at chunk size %d", seed, i, records, size, chunkSize)
			}
		}
	}
}

// A checkpoint is an immutable view: it keeps serving exactly the bytes it
// was cut from while later intervals of writes — overwrites, deletes, keys
// deleted and put back, new keys — and later checkpoints hit the live store
// and the forks taken from it.
func TestStoreCheckpointStaysStable(t *testing.T) {
	const chunkSize = 256
	s := populatedStore(t, 500)
	frozen := s.Snapshot()
	cp := s.Checkpoint(chunkSize)
	want := layoutDigest(t, cp)
	chunks := make([][]byte, cp.NumChunks())
	for i := range chunks {
		chunks[i] = cp.Chunk(i)
	}

	for interval := 0; interval < 3; interval++ {
		fork := s.Fork().(*Store)
		for i := 0; i < 500; i += 1 + interval {
			k := fmt.Sprintf("key-%04d", i)
			s.Execute([]byte("PUT " + k + " overwritten-" + fmt.Sprint(interval)))
			if i%3 == 0 {
				s.Execute([]byte("DEL " + k))
			}
			if i%4 == interval {
				fork.Execute([]byte("PUT " + k + " forked-" + fmt.Sprint(interval)))
				fork.Execute([]byte(fmt.Sprintf("DEL key-%04d", i+1)))
			}
			if i%6 == 0 {
				s.Execute([]byte("PUT " + k + " back-" + fmt.Sprint(interval)))
			}
			s.Execute([]byte(fmt.Sprintf("PUT new-%d-%d v", interval, i)))
		}
		s.Checkpoint(chunkSize)
		fork.Checkpoint(chunkSize)

		if got := layoutDigest(t, cp); got != want {
			t.Fatalf("interval %d: retained checkpoint changed", interval)
		}
		for i := range chunks {
			if !bytes.Equal(cp.Chunk(i), chunks[i]) {
				t.Fatalf("interval %d: chunk %d no longer encodes to the same bytes", interval, i)
			}
		}
	}
	if got := restoredFrom(t, NewStore(), cp).Snapshot(); !bytes.Equal(got, frozen) {
		t.Fatal("restoring the retained checkpoint does not give the state it was cut from")
	}
	if bytes.Equal(s.Snapshot(), frozen) {
		t.Fatal("the live store did not change (test is vacuous)")
	}
}

// Forks are independent: over random interleavings of writes, deletes, forks
// and checkpoints in a family of stores forked from one another, every store
// holds exactly what was executed on it and on its ancestors before they
// parted.
func TestStoreForkIsolation(t *testing.T) {
	type member struct {
		s     *Store
		model map[string]string
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		family := []member{{NewStore(), map[string]string{}}}
		for step := 0; step < 1500; step++ {
			m := family[rng.Intn(len(family))]
			key := fmt.Sprintf("key-%d", rng.Intn(150))
			switch r := rng.Intn(100); {
			case r < 60:
				value := fmt.Sprintf("v%d-%d", seed, step)
				m.s.Execute([]byte("PUT " + key + " " + value))
				m.model[key] = value
			case r < 90:
				m.s.Execute([]byte("DEL " + key))
				delete(m.model, key)
			case r < 95:
				m.s.Checkpoint(128) // shares the shards once more
			case len(family) < 8:
				family = append(family, member{m.s.Fork().(*Store), maps.Clone(m.model)})
			}
		}
		for i, m := range family {
			fresh := NewStore()
			for k, v := range m.model {
				fresh.Execute([]byte("PUT " + k + " " + v))
			}
			if !bytes.Equal(m.s.Snapshot(), fresh.Snapshot()) {
				t.Fatalf("seed %d: store %d of %d does not hold what was executed on it", seed, i, len(family))
			}
		}
	}
}

// Only what was written is hashed again: one overwritten entry costs its own
// bytes plus the digest table of its shard, not the store.
func TestStoreCheckpointHashesOnlyWhatChanged(t *testing.T) {
	s := populatedStore(t, 2000)
	all := s.Checkpoint(1024).HashedBytes()
	if all < len(s.Snapshot())-4 {
		t.Fatalf("first checkpoint hashed %d bytes of a %d-byte store", all, len(s.Snapshot()))
	}
	s.Execute([]byte("PUT key-0007 changed"))
	one := s.Checkpoint(1024).HashedBytes()
	if limit := all / storeShards * 2; one == 0 || one > limit {
		t.Fatalf("checkpoint after one write hashed %d bytes, want (0, %d]", one, limit)
	}
}

// Applications without native support go through the adapter: fixed-size
// single-record chunks of the monolithic snapshot, restored through the
// ordinary restore sink. plainApp hides Store's Incremental and Checkpointer
// methods the way a forwarding decorator does.
func TestCheckpointAdapterRoundTrip(t *testing.T) {
	pages := NewPages()
	for i := 0; i < 40; i++ {
		pages.Execute(PagePost(fmt.Sprintf("/p/%d", i), bytes.Repeat([]byte{byte('a' + i%26)}, 10+i*7)))
	}
	bench := NewBench(128)
	for i := 0; i < 9; i++ {
		bench.Execute(BenchWrite(uint64(i), 16))
	}
	for _, tc := range []struct {
		name     string
		src, dst Application
	}{
		{"pages", pages, NewPages()},
		{"bench", bench, NewBench(0)},
		{"decorated-store", plainApp{populatedStore(t, 120)}, plainApp{NewStore()}},
	} {
		for _, chunkSize := range []int{1, 5, 64, 1 << 20} {
			cp := CheckpointOf(tc.src, chunkSize)
			if _, native := cp.(*storeCheckpoint); native {
				t.Fatalf("%s: expected the adapter", tc.name)
			}
			snap := tc.src.Snapshot()
			if want := (len(snap) + max(chunkSize-4, 1) - 1) / max(chunkSize-4, 1); cp.NumChunks() != want {
				t.Fatalf("%s/%d: %d chunks, want %d", tc.name, chunkSize, cp.NumChunks(), want)
			}
			layoutDigest(t, cp)
			if got := restoredFrom(t, tc.dst, cp).Snapshot(); !bytes.Equal(got, snap) {
				t.Fatalf("%s/%d: restored state differs", tc.name, chunkSize)
			}
			if cp.HashedBytes() < len(snap) {
				t.Fatalf("%s/%d: adapter reports %d hashed bytes for a %d-byte snapshot", tc.name, chunkSize, cp.HashedBytes(), len(snap))
			}
		}
	}
}

// What a peer can do to a chunk: every mutation must change the digest or
// fail to parse, and a chunk that fails to parse must be refused by the
// sinks too (they run only after the digest matched, but must not rely on
// it for memory safety).
func TestChunkDigestRejectsMalformedChunks(t *testing.T) {
	s := populatedStore(t, 30)
	cp := s.Checkpoint(200)
	good := cp.Chunk(0)
	want, err := ChunkDigest(good)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(b []byte) []byte{
		"tampered-entry":    func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated-record":  func(b []byte) []byte { return b[:len(b)-1] },
		"oversize-length":   func(b []byte) []byte { binary.LittleEndian.PutUint32(b, 0xffffffff); return b },
		"short-length":      func(b []byte) []byte { binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)-1); return b },
		"trailing-header":   func(b []byte) []byte { return append(b, 0, 0) },
		"empty":             func(b []byte) []byte { return nil },
		"dropped-record":    func(b []byte) []byte { return b[4+binary.LittleEndian.Uint32(b):] },
		"duplicated-record": func(b []byte) []byte { return append(b, b[:4+binary.LittleEndian.Uint32(b)]...) },
	}
	for name, mutate := range mutations {
		bad := mutate(bytes.Clone(good))
		got, err := ChunkDigest(bad)
		if err == nil && got == want {
			t.Errorf("%s: digest unchanged", name)
		}
		if err != nil {
			for _, sink := range []RestoreSink{NewStore().ChunkSink(), ChunkSinkOf(plainApp{NewStore()})} {
				if sink.Write(bad) == nil {
					t.Errorf("%s: %T accepted a chunk ChunkDigest cannot parse", name, sink)
				}
			}
		}
	}
	// A record that parses as a record but not as an entry.
	sink := NewStore().ChunkSink()
	if err := sink.Write([]byte{3, 0, 0, 0, 1, 2, 3}); err == nil {
		t.Error("store chunk sink accepted a record that is no entry")
	} else if sink.Commit() == nil {
		t.Error("store chunk sink committed after a failed write")
	}
}

// ballastStore returns a store holding state bytes of entries with the given
// value.
func ballastStore(state int, value string) *Store {
	s := NewStore()
	for i := 0; i < state/len(value); i++ {
		s.put(fmt.Appendf(nil, "e%07d", i), []byte(value))
	}
	return s
}

// BenchmarkStoreFork measures a fork — what re-anchoring the speculation
// shadow costs on every view install, state-transfer install and divergence
// — of 1 MiB to 256 MiB of checkpointed 4 KiB entries. The benchmark fails
// itself if a fork copies state: it may allocate at most 64 bytes an entry
// (the hashes and digests are 36) and at most 1/64 of the state's bytes. As
// in BenchmarkStoreCheckpoint the gate starts at 32 MiB: 1 MiB is 256
// entries, and the 7 KiB Store header alone is 28 bytes for each of them.
func BenchmarkStoreFork(b *testing.B) {
	const valueSize, chunkSize = 4 << 10, 64 << 10
	value := string(bytes.Repeat([]byte{'v'}, valueSize))
	for _, state := range []int{1 << 20, 32 << 20, 256 << 20} {
		s := ballastStore(state, value)
		s.Checkpoint(chunkSize)
		b.Run(fmt.Sprintf("state=%dMiB", state>>20), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forkSink = s.Fork()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perFork := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
			if limit := uint64(min(64*s.Len(), state/64)); perFork > limit && state >= 32<<20 {
				b.Fatalf("%d MiB of state in %d entries: a fork allocates %d bytes, more than %d", state>>20, s.Len(), perFork, limit)
			}
		})
	}
}

// forkSink keeps the compiler from discarding the measured call.
var forkSink Application

// BenchmarkStoreCheckpoint measures what one checkpoint interval costs the
// store at a fixed dirty set — 2 048 writes of 4 KiB between two cuts, the
// write_bigstate shape — as the clean state under it grows from 1 MiB to
// 256 MiB (in 1 MiB there are only 256 entries of 4 KiB, so the state size is
// that of the clean ballast and the 8 MiB dirty set sits on top of it). An
// iteration is the writes, which clone the shards the previous checkpoint
// still shares, plus the cut. The benchmark fails itself if the cost follows
// the state: beyond the 8 MiB of values it stores (the store copies what it
// keeps), an interval may allocate at most 1/16 of the state's bytes (a
// materialized snapshot is at least all of them), and on 256 MiB it may take
// at most twice the time it takes on 1 MiB. The time gate compares medians of
// intervals timed alternately on the two stores: this code also runs on
// shared hosts that slow down for seconds at a time, and back-to-back means
// of the sub-benchmarks then differ by more than the effect gated.
func BenchmarkStoreCheckpoint(b *testing.B) {
	const dirty, valueSize, chunkSize = 2048, 4 << 10, 64 << 10
	value := bytes.Repeat([]byte{'v'}, valueSize)
	// Entries are ordered by key hash, so the written keys spread evenly
	// among the clean ones whatever they are called.
	hot := make([][]byte, dirty)
	for i := range hot {
		hot[i] = fmt.Appendf(nil, "hot%05d", i)
	}
	interval := func(s *Store) Checkpoint {
		for _, k := range hot {
			s.put(k, value)
		}
		return s.Checkpoint(chunkSize)
	}
	states := []int{1 << 20, 32 << 20, 256 << 20}
	stores := make([]*Store, len(states))
	for si, state := range states {
		s := ballastStore(state, string(value))
		interval(s) // hashes everything, once
		stores[si] = s

		b.Run(fmt.Sprintf("state=%dMiB", state>>20), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			hashed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hashed += interval(s).HashedBytes()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(hashed)/float64(b.N), "hashed-B/op")
			const stored = dirty * valueSize // each write's value
			if perOp := (after.TotalAlloc-before.TotalAlloc)/uint64(b.N) - stored; perOp > uint64(state)/16 && state >= 32<<20 {
				b.Fatalf("%d MiB of state: %d bytes allocated per interval beside the values written, more than 1/16 of the state", state>>20, perOp)
			}
			if min := dirty * valueSize; hashed/b.N < min || hashed/b.N > 2*min {
				b.Fatalf("%d bytes hashed per interval for %d dirty bytes", hashed/b.N, min)
			}
		})
	}

	const rounds = 15
	var small, big [rounds]time.Duration
	for i := range small {
		t0 := time.Now()
		interval(stores[0])
		t1 := time.Now()
		interval(stores[len(stores)-1])
		small[i], big[i] = t1.Sub(t0), time.Since(t1)
	}
	slices.Sort(small[:])
	slices.Sort(big[:])
	if s, g := small[rounds/2], big[rounds/2]; g > 2*s {
		b.Fatalf("a checkpoint interval takes %v on 256 MiB of state and %v on 1 MiB: more than 2x", g, s)
	}
}
