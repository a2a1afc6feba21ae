package troxy

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

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

func newProxyPair(t *testing.T) (direct Proxy, enclaved Proxy, encl *enclave.Enclave) {
	t.Helper()
	secrets, _, _ := testSecrets(t)
	mkCfg := func() Config {
		return Config{
			Self: 0, N: 3, F: 1, Seed: 77,
			Classify:  classifyKV,
			FastReads: true,
		}
	}

	dc := NewCore(mkCfg())
	if err := dc.ProvisionSecrets(secrets); err != nil {
		t.Fatal(err)
	}
	direct = NewDirectProxy(dc)

	platform := enclave.NewPlatformWithKey([]byte("hw"))
	trusted := NewTrusted(NewCore(mkCfg()), tcounter.NewSubsystem(0))
	encl, err := platform.Launch(enclave.Definition{
		Name: "troxy-test", CodeIdentity: CodeIdentity,
	}, trusted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := encl.Provision(secrets); err != nil {
		t.Fatal(err)
	}
	enclaved = NewEnclaveProxy(encl)
	return direct, enclaved, encl
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
	run := func(p Proxy) (frames [][]byte, submits []msg.OrderRequest, stats Stats) {
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
		submits = append(submits, acts.Submits...)
		req := acts.Submits[0]
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
		submits = append(submits, acts.Submits...)
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
		submits = append(submits, acts.Submits...)
		if len(acts.Queries) != 1 || acts.Queries[0].Query == nil {
			t.Fatalf("expected a cache query on the repeated read, got %+v", acts.Queries)
		}
		// Answer the remote-cache confirmation ourselves.
		q := acts.Queries[0].Query
		rep := &msg.CacheReply{
			From: acts.Queries[0].To, QueryID: q.QueryID, ReqDigest: q.ReqDigest,
			Found: true, ReplyDigest: msg.DigestOf([]byte("VALUE v")),
		}
		rep.Tag = tagger.Tag(nil, rep.From, tagInput(rep))
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
	// Compared as encoded: the direct binding's requests carry the digest the
	// Core computed, which does not cross the enclave boundary.
	encoded := func(submits []msg.OrderRequest) []byte {
		w := wire.NewWriter(256)
		encodeActions(w, &Actions{Submits: submits})
		return w.Bytes()
	}
	if !bytes.Equal(encoded(dSubmits), encoded(eSubmits)) {
		t.Errorf("submits differ:\n direct  %+v\n enclave %+v", dSubmits, eSubmits)
	}
	if dStats != eStats {
		t.Errorf("stats differ:\n direct  %+v\n enclave %+v", dStats, eStats)
	}
	if dStats.FastReadOK != 1 {
		t.Errorf("fast reads = %d, want 1", dStats.FastReadOK)
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

func TestTrustedInterfaceIsExactlyNineteenECalls(t *testing.T) {
	trusted := NewTrusted(NewCore(Config{Self: 0, N: 3, F: 1, Seed: 1}), tcounter.NewSubsystem(0))
	table := trusted.ECalls()
	if len(table) != 19 {
		t.Fatalf("enclave interface has %d entry points, want 19 (the paper's 16 plus the speculative tier's 3)", len(table))
	}
	for _, name := range []string{
		ECallClientData, ECallAuthReply, ECallHandleReply,
		ECallAuthSpecReply, ECallSpecReply, ECallRetract,
		tcounter.ECallCertify, tcounter.ECallVerify,
	} {
		if table[name] == nil {
			t.Errorf("missing ecall %q", name)
		}
	}
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
