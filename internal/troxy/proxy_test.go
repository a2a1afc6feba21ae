package troxy

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/tcounter"
	"github.com/troxy-bft/troxy/internal/wire"
)

// nullEnv satisfies node.Env for proxy calls in tests.
type nullEnv struct{ now time.Duration }

func (e nullEnv) Self() msg.NodeID                        { return 0 }
func (e nullEnv) Now() time.Duration                      { return e.now }
func (nullEnv) Send(*msg.Envelope)                        {}
func (nullEnv) SetTimer(time.Duration, node.TimerKey)     {}
func (nullEnv) CancelTimer(node.TimerKey)                 {}
func (nullEnv) Rand() *rand.Rand                          { return rand.New(rand.NewSource(1)) }
func (nullEnv) Charge(node.Profile, node.ChargeKind, int) {}
func (nullEnv) Logf(string, ...any)                       {}

var _ node.Env = nullEnv{}

// binding is one Proxy implementation and the Core behind it.
type binding struct {
	p    Proxy
	core *Core
}

// newBindings builds the two bindings over a Core each, provisioned alike:
// the direct one, and one hosted in an enclave.
func newBindings(t testing.TB, cfg Config) (direct, enclaved binding, encl *enclave.Enclave) {
	t.Helper()
	secrets, _, _ := testSecrets(t)
	dc := NewCore(cfg)
	if err := dc.ProvisionSecrets(secrets); err != nil {
		t.Fatal(err)
	}
	hosted := NewCore(cfg)
	encl, err := enclave.NewPlatformWithKey([]byte("hw")).Launch(enclave.Definition{
		Name: "troxy-test", CodeIdentity: CodeIdentity,
	}, NewTrusted(hosted, tcounter.NewSubsystem(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := encl.Provision(secrets); err != nil {
		t.Fatal(err)
	}
	return binding{NewDirectProxy(dc), dc}, binding{NewEnclaveProxy(encl), hosted}, encl
}

func newProxyPair(t *testing.T) (direct Proxy, enclaved Proxy, encl *enclave.Enclave) {
	t.Helper()
	d, e, encl := newBindings(t, Config{
		Self: 0, N: 3, F: 1, Seed: 77,
		Classify:  classifyKV,
		FastReads: true,
	})
	return d.p, e.p, encl
}

// TestProxyBindingsEquivalent drives the SAME deterministic operation
// sequence through the ctroxy (direct) and etroxy (enclave, serialized
// ecalls) bindings and requires identical observable behaviour. It pins the
// boundary serialization: any codec asymmetry shows up as divergence.
func TestProxyBindingsEquivalent(t *testing.T) {
	direct, enclaved, _ := newProxyPair(t)
	secrets, pub, tagger := testSecrets(t)
	_ = secrets

	env := nullEnv{}
	// A step's submits are recorded as encoded, there and then. The encoding
	// carries each request's digest, as the boundary does.
	encoded := func(acts Actions) []byte {
		w := wire.NewWriter(256)
		encodeActions(w, &Actions{Submits: acts.Submits})
		return w.Bytes()
	}
	// Either binding hands hybster.Submit a request that carries the digest
	// the Core registered the vote under, so the host does not hash the
	// operation again: with another operation in its place the request still
	// answers with the digest of the one it was submitted with. A
	// retransmission registers nothing and hashes nothing inside; whichever
	// side ends up computing its digest, it is the request's.
	checkDigests := func(acts Actions, carried bool) {
		t.Helper()
		for _, s := range acts.Submits { // s is a copy: the binding's own request is left as it is
			want := (&msg.OrderRequest{Origin: s.Origin, Client: s.Client, ClientSeq: s.ClientSeq, Flags: s.Flags, Op: s.Op}).Digest()
			if carried {
				s.Op = []byte("not the operation")
			}
			if s.Digest() != want {
				t.Errorf("submit of client sequence %d (digest carried: %v) has the wrong digest", s.ClientSeq, carried)
			}
		}
	}
	run := func(p Proxy) (frames, submits [][]byte, stats Stats) {
		// Deterministic handshake: the same reader stream on both sides.
		hs, hello, err := securechannel.NewClientHandshake(pub, &bytesReader{})
		if err != nil {
			t.Fatal(err)
		}
		acts, err := p.HandleClientData(env, 1, 90, hello)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := hs.Finish(acts.Client[0].Frame)
		if err != nil {
			t.Fatal(err)
		}

		send := func(seq uint64, op string, read bool) Actions {
			flags := uint8(0)
			if read {
				flags = msg.FlagReadOnly
			}
			rec, err := sess.Seal(msg.EncodeChannelRequest(&msg.ChannelRequest{
				Client: 5, Seq: seq, Flags: flags, Op: []byte(op),
			}))
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.HandleClientData(env, 1, 90, rec)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}

		// A write, its replies, then a read, its replies, then a repeated
		// read that hits the cache.
		acts = send(1, "PUT k v", false)
		checkDigests(acts, true)
		submits = append(submits, encoded(acts))
		req := acts.Submits[0]
		// The client retransmits before any reply: the vote exists, the
		// request is submitted again.
		again := send(1, "PUT k v", false)
		if len(again.Submits) != 1 {
			t.Fatalf("a retransmission produced %d submits, want 1", len(again.Submits))
		}
		checkDigests(again, false)
		submits = append(submits, encoded(again))
		for _, ex := range []msg.NodeID{1, 2} {
			out, err := p.HandleReply(env, makeReply(tagger, ex, req, "OK", []string{"k"}))
			if err != nil {
				t.Fatal(err)
			}
			for _, cr := range out.Client {
				pt, err := sess.Open(cr.Frame)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, pt)
			}
		}
		acts = send(2, "GET k", true)
		checkDigests(acts, true)
		submits = append(submits, encoded(acts))
		rreq := acts.Submits[0]
		for _, ex := range []msg.NodeID{1, 2} {
			out, err := p.HandleReply(env, makeReply(tagger, ex, rreq, "VALUE v", []string{"k"}))
			if err != nil {
				t.Fatal(err)
			}
			for _, cr := range out.Client {
				pt, err := sess.Open(cr.Frame)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, pt)
			}
		}
		acts = send(3, "GET k", true)
		submits = append(submits, encoded(acts))
		if len(acts.Queries) != 1 || acts.Queries[0].Kind != msg.KindCacheQuery {
			t.Fatalf("expected a cache query on the repeated read, got %+v", acts.Queries)
		}
		// Answer the remote-cache confirmation ourselves.
		q := openPeer[*msg.CacheQuery](t, acts.Queries[0])
		rep := &msg.CacheReply{
			From: acts.Queries[0].To, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest,
			Found: true, ReplyDigest: msg.DigestOf([]byte("VALUE v")),
		}
		rep.Tag = tagger.Tag(nil, rep.Kind(), rep.From, tagInput(rep))
		out, err := p.HandleCacheReply(env, rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range out.Client {
			pt, err := sess.Open(cr.Frame)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, pt)
		}

		st, err := p.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return frames, submits, st
	}

	dFrames, dSubmits, dStats := run(direct)
	eFrames, eSubmits, eStats := run(enclaved)

	if len(dFrames) != len(eFrames) {
		t.Fatalf("frame counts differ: %d vs %d", len(dFrames), len(eFrames))
	}
	for i := range dFrames {
		if !bytes.Equal(dFrames[i], eFrames[i]) {
			t.Errorf("frame %d differs:\n direct  %q\n enclave %q", i, dFrames[i], eFrames[i])
		}
	}
	if len(dSubmits) != len(eSubmits) {
		t.Fatalf("step counts differ: %d vs %d", len(dSubmits), len(eSubmits))
	}
	for i := range dSubmits {
		if !bytes.Equal(dSubmits[i], eSubmits[i]) {
			t.Errorf("submits of step %d differ:\n direct  %x\n enclave %x", i, dSubmits[i], eSubmits[i])
		}
	}
	if dStats != eStats {
		t.Errorf("stats differ:\n direct  %+v\n enclave %+v", dStats, eStats)
	}
	if dStats.FastReadOK != 1 {
		t.Errorf("fast reads = %d, want 1", dStats.FastReadOK)
	}
}

// TestClientRecordBodyIsItsChannelData: whichever binding hands a client
// record to the host, its Body is exactly the body of the ChannelData
// envelope that carries Frame to ConnID — what msg.SealChannelData would have
// built — with Frame a view of it, and ConnID and Node are the connection's:
// the replica sends Body as it is. A record is lent until the binding's next
// call, so each is checked before the next call is made.
func TestClientRecordBodyIsItsChannelData(t *testing.T) {
	_, pub, tagger := testSecrets(t)
	direct, enclaved, _ := newBindings(t, Config{Self: 0, N: 3, F: 1, Seed: 77, Classify: classifyKV})
	for name, p := range map[string]Proxy{"direct": direct.p, "enclave": enclaved.p} {
		records := 0
		check := func(crs []ClientRecord) {
			for _, cr := range crs {
				want := msg.SealChannelData(0, 90, 7, cr.Frame).Body
				if cr.ConnID != 7 || cr.Node != 90 || !bytes.Equal(cr.Body, want) {
					t.Errorf("%s: record %d to connection %d at node %d has body %x, want connection 7 at node 90 and body %x",
						name, records, cr.ConnID, cr.Node, cr.Body, want)
				} else if &cr.Frame[0] != &cr.Body[len(cr.Body)-len(cr.Frame)] {
					t.Errorf("%s: record %d's frame is not a view of its body", name, records)
				}
				records++
			}
		}
		hs, hello, err := securechannel.NewClientHandshake(pub, &bytesReader{})
		if err != nil {
			t.Fatal(err)
		}
		acts, err := p.HandleClientData(nullEnv{}, 7, 90, hello)
		if err != nil {
			t.Fatal(err)
		}
		check(acts.Client)
		sess, err := hs.Finish(acts.Client[0].Frame)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sess.Seal(msg.EncodeChannelRequest(&msg.ChannelRequest{Client: 5, Seq: 1, Op: []byte("PUT k v")}))
		if err != nil {
			t.Fatal(err)
		}
		acts, err = p.HandleClientData(nullEnv{}, 7, 90, rec)
		if err != nil || len(acts.Submits) != 1 {
			t.Fatalf("%s: %d submits, %v", name, len(acts.Submits), err)
		}
		req := acts.Submits[0]
		for _, executor := range []msg.NodeID{1, 2} {
			out, err := p.HandleReply(nullEnv{}, makeReply(tagger, executor, req, "OK", []string{"k"}))
			if err != nil {
				t.Fatal(err)
			}
			check(out.Client)
		}
		if records != 2 {
			t.Fatalf("%s: %d client records, want the server hello and the answer", name, records)
		}
	}
}

func TestEnclaveProxyCountsTransitions(t *testing.T) {
	_, enclaved, encl := newProxyPair(t)
	env := nullEnv{}
	enclaved.AcceptConn(env, 1, 90)
	enclaved.CloseConn(env, 1)
	if _, err := enclaved.Tick(env); err != nil {
		t.Fatal(err)
	}
	st := encl.Stats()
	if st.Transitions < 3 {
		t.Errorf("transitions = %d, want ≥3", st.Transitions)
	}
	if st.ECalls[ECallTick] != 1 {
		t.Errorf("tick ecalls = %d", st.ECalls[ECallTick])
	}
}

// TestTrustedInterfaceIsExactlyTheseECalls pins the enclave interface by name
// — the Troxy's twelve entry points and the counter subsystem's two, nothing
// the host does not call — and the table a binding without an enclave calls
// in process: the same Troxy entry points, and no counter entry point.
func TestTrustedInterfaceIsExactlyTheseECalls(t *testing.T) {
	troxyCalls := []string{ // sorted
		"troxy_accept_connection", "troxy_authenticate_reply", "troxy_authenticate_spec_reply",
		"troxy_close_connection", "troxy_get_stats", "troxy_handle_cache_query",
		"troxy_handle_cache_reply", "troxy_handle_client_data", "troxy_handle_reply",
		"troxy_handle_retract", "troxy_handle_spec_reply", "troxy_tick",
	}
	want := append([]string{"counter_certify", "counter_verify"}, troxyCalls...)
	core := NewCore(Config{Self: 0, N: 3, F: 1, Seed: 1})
	if got := slices.Sorted(maps.Keys(NewTrusted(core, tcounter.NewSubsystem(0)).ECalls())); !slices.Equal(got, want) {
		t.Errorf("enclave interface = %q,\nwant %q", got, want)
	}
	if got := slices.Sorted(maps.Keys(NewDirectProxy(core).ecalls)); !slices.Equal(got, troxyCalls) {
		t.Errorf("in-process table = %q,\nwant %q", got, troxyCalls)
	}
}

// enclaveImage is the package set compiled into the enclave: the trusted
// roots and every package of this module they import, module-relative and
// sorted.
var enclaveImage = []string{
	"internal/enclave", "internal/httpfront", "internal/msg", "internal/node",
	"internal/securechannel", "internal/tcounter", "internal/troxy", "internal/wire",
}

// maxEnclaveLines is the ceiling on the non-test lines of enclaveImage. It
// only moves down.
const maxEnclaveLines = 5759

// hostOnly are the standard-library packages, with their subpackages, that
// reach the operating system. The enclave makes no ocalls (Section V-A of the
// paper), so no image package imports one.
var hostOnly = []string{"net", "os", "syscall"}

// TestTrustedComputingBase pins the enclave image by its import closure: the
// trusted roots (analysis.TrustedRoots, which secretflow reads too) may
// import no package of this module beyond enclaveImage, so an ocall into a
// host runtime such as realnet, or an application compiled in, fails here;
// and no image package may import a hostOnly package directly, so an ocall
// through the standard library fails here too. It also counts the image's
// lines. The count holds two parts that run on the host but share the
// image's packages: proxy.go (308 lines), the bindings that cross into the
// enclave, and internal/node (141 lines), the environment interfaces a Core
// is handed.
func TestTrustedComputingBase(t *testing.T) {
	args := []string{"list", "-deps", "-f", "{{if not .Standard}}{{.ImportPath}}\t{{.Dir}}\t{{join .Imports \" \"}}\t{{join .GoFiles \"\\t\"}}{{end}}"}
	for _, root := range analysis.TrustedRoots {
		args = append(args, analysis.ModulePath+"/"+root)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []string
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "\t")
		rel, _ := analysis.RelPath(fields[0])
		pkgs = append(pkgs, rel)
		for _, imp := range strings.Fields(fields[2]) {
			for _, host := range hostOnly {
				if imp == host || strings.HasPrefix(imp, host+"/") {
					t.Errorf("%s imports %s: the enclave makes no ocalls", rel, imp)
				}
			}
		}
		for _, file := range fields[3:] {
			src, err := os.ReadFile(filepath.Join(fields[1], file))
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
	}
	slices.Sort(pkgs)
	if !slices.Equal(pkgs, enclaveImage) {
		t.Errorf("the enclave image is %q,\nwant %q", pkgs, enclaveImage)
	}
	if lines > maxEnclaveLines {
		t.Errorf("the enclave image has %d non-test lines, above the ceiling of %d", lines, maxEnclaveLines)
	}
	t.Logf("the enclave image has %d non-test lines in %d packages", lines, len(pkgs))
}

func TestEnclaveRestartDropsTroxyState(t *testing.T) {
	_, enclaved, encl := newProxyPair(t)
	env := nullEnv{}
	enclaved.AcceptConn(env, 1, 90)
	encl.Restart()
	// Ecalls work again but the core is unprovisioned: client data fails.
	if _, err := enclaved.HandleClientData(env, 1, 90, []byte{1}); err == nil {
		t.Error("unprovisioned enclave accepted client data after restart")
	}
}

func TestCacheFootprintAccountedAgainstEPC(t *testing.T) {
	_, enclaved, encl := newProxyPair(t)
	env := nullEnv{}

	// Populate the cache through the enclave interface: authenticate a
	// large read reply (executor-side caching).
	rep := &msg.OrderedReply{
		Executor: 0, Client: 9, ClientSeq: 1,
		Result: make([]byte, 32<<10), InvalidKeys: msg.AppendKeys(nil, []string{"k"}),
	}
	if err := enclaved.AuthenticateReply(env, rep, true, true, msg.DigestOf([]byte("GET big"))); err != nil {
		t.Fatal(err)
	}
	used := encl.Stats().EPCUsed
	if used < 32<<10 {
		t.Fatalf("EPC used = %d, want ≥ cache entry size", used)
	}

	// An invalidating write releases the trusted memory again.
	wrep := &msg.OrderedReply{
		Executor: 0, Client: 9, ClientSeq: 2,
		Result: []byte("OK"), InvalidKeys: msg.AppendKeys(nil, []string{"k"}),
	}
	if err := enclaved.AuthenticateReply(env, wrep, false, true, msg.DigestOf([]byte("PUT big"))); err != nil {
		t.Fatal(err)
	}
	if after := encl.Stats().EPCUsed; after >= used {
		t.Errorf("EPC not released on invalidation: %d -> %d", used, after)
	}
}

// TestStatsCodecCoversEveryField sets every numeric field of Stats (and the
// nested CacheStats) to a distinct value by reflection, so a counter added
// to either struct without reaching Stats.wireFields fails here instead of
// reading back as zero on the untrusted side. It also pins the bytes: one
// little-endian uint64 per field, in declaration order — the format the
// simulator charges for by length and bench/ reads through ECallStats.
func TestStatsCodecCoversEveryField(t *testing.T) {
	var s Stats
	var want []byte
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n := uint64(len(want)/8 + 1)
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
				continue
			case reflect.Uint64:
				f.SetUint(n)
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(n))
			default:
				t.Fatalf("field %s has kind %s; teach the stats codec and this test about it",
					v.Type().Field(i).Name, f.Kind())
			}
			want = binary.LittleEndian.AppendUint64(want, n)
		}
	}
	fill(reflect.ValueOf(&s).Elem())

	enc := encodeStats(s)
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoded stats = %x\nwant one LE uint64 per field in declaration order = %x", enc, want)
	}
	got, err := decodeStats(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip lost a field:\n got %+v\nwant %+v", got, s)
	}
	if _, err := decodeStats(enc[:len(enc)-1]); err == nil {
		t.Error("truncated stats decoded without error")
	}
}

// TestEnclaveProxyResultsOutliveItsRoom: the enclave binding copies every
// result into one buffer it reuses. An Actions, submits included, is lent
// until the next call (TestLentActionsAreUsedBeforeTheNextCall in
// internal/replica overwrites it then); a tag is moved into the reply's
// storage, which outlives the buffer and is reused when the reply is.
func TestEnclaveProxyResultsOutliveItsRoom(t *testing.T) {
	_, enclaved, _ := newProxyPair(t)
	_, pub, _ := testSecrets(t)
	env := nullEnv{}

	hs, hello, err := securechannel.NewClientHandshake(pub, &bytesReader{})
	if err != nil {
		t.Fatal(err)
	}
	acts, err := enclaved.HandleClientData(env, 1, 90, hello)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := hs.Finish(acts.Client[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Seal(msg.EncodeChannelRequest(&msg.ChannelRequest{Client: 5, Seq: 1, Op: []byte("X")}))
	if err != nil {
		t.Fatal(err)
	}
	lent, err := enclaved.HandleClientData(env, 1, 90, rec)
	if err != nil || len(lent.Submits) != 1 || string(lent.Submits[0].Op) != "X" || lent.Submits[0].Client != 5 {
		t.Fatalf("submits = %+v, %v", lent.Submits, err)
	}

	// Two tags and an empty Actions pass through the room meanwhile.
	first := &msg.OrderedReply{Executor: 0, Client: 5, ClientSeq: 1, Result: []byte("one")}
	second := &msg.OrderedReply{Executor: 0, Client: 5, ClientSeq: 2, Result: []byte("two")}
	if err := enclaved.AuthenticateReply(env, first, false, true, msg.Digest{}); err != nil {
		t.Fatal(err)
	}
	firstTag := bytes.Clone(first.TroxyTag)
	if err := enclaved.AuthenticateReply(env, second, false, true, msg.Digest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := enclaved.Tick(env); err != nil {
		t.Fatal(err)
	}
	if len(firstTag) == 0 || !bytes.Equal(first.TroxyTag, firstTag) || bytes.Equal(second.TroxyTag, firstTag) {
		t.Errorf("tags after a second reply was authenticated: first %x (was %x), second %x", first.TroxyTag, firstTag, second.TroxyTag)
	}

	// A reused reply keeps its tag's storage.
	storage := &first.TroxyTag[0]
	first.Result, first.TroxyTag = []byte("three"), first.TroxyTag[:0]
	if err := enclaved.AuthenticateReply(env, first, false, true, msg.Digest{}); err != nil {
		t.Fatal(err)
	}
	if &first.TroxyTag[0] != storage || bytes.Equal(first.TroxyTag, firstTag) {
		t.Errorf("re-authenticated reply: tag %x in new storage = %v", first.TroxyTag, &first.TroxyTag[0] != storage)
	}
}
