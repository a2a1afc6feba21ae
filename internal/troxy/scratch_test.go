package troxy

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
)

// scratchRun drives a conversation through one Proxy binding the way the
// replica does — whatever a call returns is consumed before the next call —
// and, with poison set, overwrites all of the Core's scratch after every call
// (poisonScratch): the Core is then free to reuse it, so nothing the Troxy
// keeps and nothing the host still holds may be a view of it.
type scratchRun struct {
	t      *testing.T
	p      Proxy
	core   *Core // the Core behind p
	poison bool
	sess   *securechannel.Session

	steps      [][]byte // every call's Actions as encoded when the call returned
	plaintexts [][]byte // what the client decrypted, in order
}

// took consumes a call's result: the actions are encoded on the spot (what
// the network's send amounts to), client records are decrypted, the Core's
// scratch is poisoned — which must not change the actions the caller holds —
// and the actions come back decoded from that encoding, owning every byte.
func (r *scratchRun) took(acts Actions, err error) Actions {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
	w := wire.NewWriter(256)
	encodeActions(w, &acts)
	r.steps = append(r.steps, w.Bytes())
	for _, cr := range acts.Client {
		if r.sess == nil {
			continue // the server hello
		}
		pt, err := r.sess.Open(cr.Frame)
		if err != nil {
			r.t.Fatal(err)
		}
		r.plaintexts = append(r.plaintexts, pt)
	}
	if r.poison {
		poisonScratch(r.core)
		// Every byte slice in an Actions is the caller's to keep, whichever
		// binding returned it: ordering holds a submit as it is handed over,
		// long after the Core has decrypted its next record.
		again := wire.NewWriter(256)
		encodeActions(again, &acts)
		if !bytes.Equal(again.Bytes(), w.Bytes()) {
			r.t.Errorf("call %d: the returned actions changed when the Core's scratch was overwritten:\n got %x\nwant %x",
				len(r.steps)-1, again.Bytes(), w.Bytes())
		}
	}
	own, err := decodeActions(w.Bytes())
	if err != nil {
		r.t.Fatal(err)
	}
	return own
}

// poisonScratch overwrites everything the Core reuses from call to call with
// 0xA5 bytes and junk values: the plaintext buffer, the sealed records and
// tags, the cache messages, the Actions slices, and the storage of the votes
// and fast reads on its free lists.
func poisonScratch(c *Core) {
	junk := bytes.Repeat([]byte{0xA5}, 40)
	var digest msg.Digest
	copy(digest[:], junk)
	fill(c.channels.plain, 0xA5)
	fill(c.sealed, 0xA5)
	fill(c.peer.Bytes(), 0xA5)
	fill(c.out.Client, ClientRecord{ConnID: 0xA5A5A5A5, Node: 0x5A5A5A5A, Frame: junk, Body: junk})
	fill(c.out.Submits, msg.OrderRequest{Origin: 0x5A5A5A5A, Client: 0xA5A5A5A5, ClientSeq: 0xA5A5A5A5, Flags: 0xA5, Op: junk})
	fill(c.out.Queries, PeerCacheMsg{To: 0x5A5A5A5A, Kind: 0xA5, Body: junk})
	for _, vs := range c.freeVotes {
		fill(vs.slab, 0xA5)
		fill(vs.spec.ballots, ballot{hash: digest, voters: ^uint64(0), seq: 0xA5A5A5A5, result: junk, keys: junk})
	}
	for _, qs := range c.freeQueries {
		fill(qs.fallback.Op, 0xA5)
	}
}

// fill sets every element of s up to its capacity to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

func (r *scratchRun) handshake(pub []byte) {
	r.t.Helper()
	hs, hello, err := securechannel.NewClientHandshake(pub, &bytesReader{})
	if err != nil {
		r.t.Fatal(err)
	}
	acts := r.took(r.p.HandleClientData(nullEnv{}, 1, 90, hello))
	if r.sess, err = hs.Finish(acts.Client[0].Frame); err != nil {
		r.t.Fatal(err)
	}
}

// send seals plaintext into a record and hands it to the Troxy.
func (r *scratchRun) send(plaintext []byte) Actions {
	r.t.Helper()
	rec, err := r.sess.Seal(plaintext)
	if err != nil {
		r.t.Fatal(err)
	}
	return r.took(r.p.HandleClientData(nullEnv{}, 1, 90, rec))
}

func (r *scratchRun) request(seq uint64, op string, flags uint8) Actions {
	r.t.Helper()
	return r.send(msg.EncodeChannelRequest(&msg.ChannelRequest{Client: 5, Seq: seq, Flags: flags, Op: []byte(op)}))
}

func (r *scratchRun) reply(rep *msg.OrderedReply) Actions {
	r.t.Helper()
	return r.took(r.p.HandleReply(nullEnv{}, rep))
}

// scratchBindings returns a run per binding, each with the Core behind it.
func scratchBindings(t *testing.T, cfg Config) map[string]*scratchRun {
	t.Helper()
	direct, enclaved, _ := newBindings(t, cfg)
	return map[string]*scratchRun{
		"direct":  {t: t, p: direct.p, core: direct.core},
		"enclave": {t: t, p: enclaved.p, core: enclaved.core},
	}
}

// scratchScript is the generic-protocol conversation: a write voted to
// completion with a retransmission in between, a read that fills the cache, a
// cached read confirmed remotely, one whose remote disagrees and falls back to
// ordering with the operation the query kept, and a fast-commit write
// answered speculatively and then confirmed.
func scratchScript(r *scratchRun) {
	t := r.t
	_, pub, tagger := testSecrets(t)
	r.handshake(pub)

	write := r.request(1, "PUT k v", 0).Submits[0]
	r.reply(makeReply(tagger, 1, write, "OK", []string{"k"}))
	r.request(1, "PUT k v", 0) // the client retransmits while one vote is in
	r.reply(makeReply(tagger, 2, write, "OK", []string{"k"}))

	read := r.request(2, "GET k", msg.FlagReadOnly).Submits[0]
	r.reply(makeReply(tagger, 1, read, "VALUE v", []string{"k"}))
	r.reply(makeReply(tagger, 2, read, "VALUE v", []string{"k"}))

	answer := func(acts Actions, found bool) Actions {
		t.Helper()
		if len(acts.Queries) != 1 || acts.Queries[0].Kind != msg.KindCacheQuery {
			t.Fatalf("a cached read sent %+v, want one cache query", acts.Queries)
		}
		q := openPeer[*msg.CacheQuery](t, acts.Queries[0])
		rep := &msg.CacheReply{From: q.To, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest, Found: found}
		if found {
			rep.ReplyDigest = msg.DigestOf([]byte("VALUE v"))
		}
		rep.Tag = tagger.Tag(nil, rep.Kind(), rep.From, tagInput(rep))
		return r.took(r.p.HandleCacheReply(nullEnv{now: time.Millisecond}, rep))
	}
	answer(r.request(3, "GET k", msg.FlagReadOnly), true)
	fell := answer(r.request(4, "GET k", msg.FlagReadOnly), false)
	if len(fell.Submits) != 1 || string(fell.Submits[0].Op) != "GET k" {
		t.Errorf("fallback submitted %+v, want the read the query kept", fell.Submits)
	}

	fast := r.request(5, "PUT s 1", msg.FlagFastCommit).Submits[0]
	for _, executor := range []msg.NodeID{1, 2} {
		r.took(r.p.HandleSpecReply(nullEnv{}, makeSpecReply(tagger, executor, fast, "OK")))
	}
	r.reply(makeReply(tagger, 1, fast, "OK", []string{"s"}))
	r.reply(makeReply(tagger, 2, fast, "OK", []string{"s"}))
}

// httpScratchScript is the HTTP conversation: a request that arrives in two
// records, so its head waits in the session's stream buffer across a call,
// followed by two requests in one record, and one whose Content-Length
// overflows.
func httpScratchScript(r *scratchRun) {
	t := r.t
	_, pub, tagger := testSecrets(t)
	r.handshake(pub)

	get := "GET /page HTTP/1.1\r\nHost: example\r\n\r\n"
	if acts := r.send([]byte(get[:21])); len(acts.Submits) != 0 {
		t.Fatalf("half a request produced %d submits", len(acts.Submits))
	}
	first := r.send([]byte(get[21:]))
	if len(first.Submits) != 1 || string(first.Submits[0].Op) != get {
		t.Fatalf("the completed request was submitted as %+v", first.Submits)
	}
	for _, executor := range []msg.NodeID{1, 2} {
		r.reply(makeReply(tagger, executor, first.Submits[0], "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi", nil))
	}
	pair := r.send([]byte(get + get))
	if len(pair.Submits) != 2 || string(pair.Submits[1].Op) != get {
		t.Fatalf("two requests in one record were submitted as %+v", pair.Submits)
	}

	// A Content-Length that overflows once the head is added is bad data
	// from the client, not an allocation.
	rec, err := r.sess.Seal([]byte("POST / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.p.HandleClientData(nullEnv{}, 1, 90, rec); !errors.Is(err, ErrBadChannel) {
		t.Errorf("an overflowing Content-Length: err = %v, want ErrBadChannel", err)
	}
}

// TestPlaintextScratchIsNotRetained: the Core decrypts every client record
// into one buffer, seals every client record and tag into another, builds its
// cache messages and Actions in slices it reuses, and recycles ended votes
// and fast reads with their storage. Overwriting all of that after every call
// — through the binding in process, which copies the Actions out of it, and
// through the enclave — must change nothing: not one action of any call, while
// the caller holds it or afterwards, and not what the client reads.
func TestPlaintextScratchIsNotRetained(t *testing.T) {
	generic := Config{Self: 0, N: 3, F: 1, Seed: 77, Classify: classifyKV, FastReads: true}
	http := Config{Self: 0, N: 3, F: 1, Seed: 77, Classify: classifyKV, HTTP: true}
	for _, tc := range []struct {
		name   string
		cfg    Config
		script func(*scratchRun)
		want   []string // results the client reads, in order
	}{
		{"generic", generic, scratchScript, []string{"OK", "VALUE v", "VALUE v", "OK", "OK"}},
		{"http", http, httpScratchScript, []string{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"}},
	} {
		for binding, clean := range scratchBindings(t, tc.cfg) {
			poisoned := scratchBindings(t, tc.cfg)[binding]
			poisoned.poison = true
			tc.script(clean)
			tc.script(poisoned)

			if len(clean.plaintexts) != len(tc.want) {
				t.Fatalf("%s/%s: the client got %d replies, want %d", tc.name, binding, len(clean.plaintexts), len(tc.want))
			}
			for i, pt := range clean.plaintexts {
				result := pt
				if !tc.cfg.HTTP {
					rep, err := msg.DecodeChannelReply(pt)
					if err != nil {
						t.Fatal(err)
					}
					result = rep.Result
				}
				if string(result) != tc.want[i] {
					t.Errorf("%s/%s: reply %d = %q, want %q", tc.name, binding, i, result, tc.want[i])
				}
			}
			if len(poisoned.steps) != len(clean.steps) || len(poisoned.plaintexts) != len(clean.plaintexts) {
				t.Fatalf("%s/%s: poisoned run made %d calls and %d replies, clean run %d and %d", tc.name, binding,
					len(poisoned.steps), len(poisoned.plaintexts), len(clean.steps), len(clean.plaintexts))
			}
			for i := range clean.steps {
				if !bytes.Equal(poisoned.steps[i], clean.steps[i]) {
					t.Errorf("%s/%s: call %d's actions differ once the plaintext buffer is overwritten:\n got %x\nwant %x",
						tc.name, binding, i, poisoned.steps[i], clean.steps[i])
				}
			}
			for i := range clean.plaintexts {
				if !bytes.Equal(poisoned.plaintexts[i], clean.plaintexts[i]) {
					t.Errorf("%s/%s: client plaintext %d = %q, want %q", tc.name, binding, i, poisoned.plaintexts[i], clean.plaintexts[i])
				}
			}
		}
	}
}
