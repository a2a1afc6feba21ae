package troxy

import (
	"bytes"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/tcounter"
	"github.com/troxy-bft/troxy/internal/wire"
)

// ecallScript drives one fixed conversation through a Trusted's ecall table —
// a write voted to completion with a retransmission in between, a read whose
// local execution fills the cache, a peer's cache query, the read's vote, a
// cached read confirmed remotely, one whose remote disagrees and falls back
// to ordering, a fast-commit write answered speculatively and then
// confirmed, and a write whose vote has to invalidate the cached read — and
// returns every ecall's result, plus the plaintexts
// the client decrypted. With poison set, the argument of every ecall is
// overwritten as soon as the handler returns, which is what the host is free
// to do with a buffer it lent for the call, and the operations of the
// submits a call returned, views of its result, are overwritten when the next
// call starts: the host uses a result until its next call, and what it keeps
// of a submit ordering copies.
func ecallScript(t *testing.T, poison bool) (results [][]byte, replies []msg.ChannelReply) {
	t.Helper()
	secrets, pub, tagger := testSecrets(t)
	trusted := NewTrusted(NewCore(Config{
		Self: 0, N: 3, F: 1, Seed: 77,
		Classify: classifyKV, FastReads: true,
	}), tcounter.NewSubsystem(0))
	trusted.OnStart(nil)
	if err := trusted.Provision(secrets); err != nil {
		t.Fatal(err)
	}
	table := trusted.ECalls()

	var lent Actions // the last result's, decoded by view of it
	call := func(name string, build func(w *wire.Writer)) Actions {
		t.Helper()
		if poison {
			for _, req := range lent.Submits {
				for i := range req.Op {
					req.Op[i] = 0xA5
				}
			}
		}
		lent.Submits = lent.Submits[:0]
		w := wire.NewWriter(256)
		build(w)
		arg := w.Bytes()
		out, err := table[name](arg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if poison {
			for i := range arg {
				arg[i] = 0xA5
			}
		}
		results = append(results, bytes.Clone(out)) // a result is valid until the next ecall
		if name == ECallAuthReply {
			return Actions{}
		}
		if lent, err = decodeActions(out, &lent); err != nil {
			t.Fatalf("%s: decode result: %v", name, err)
		}
		return lent
	}
	clientData := func(payload []byte) Actions {
		return call(ECallClientData, func(w *wire.Writer) {
			w.I64(0)
			w.U64(1)
			w.U32(90)
			w.Bytes32(payload)
		})
	}
	handleReply := func(rep *msg.OrderedReply) Actions {
		return call(ECallHandleReply, func(w *wire.Writer) {
			w.I64(0)
			rep.MarshalWire(w)
		})
	}

	hs, hello, err := securechannel.NewClientHandshake(pub, &bytesReader{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := hs.Finish(clientData(hello).Client[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	send := func(seq uint64, op string, flags uint8) Actions {
		t.Helper()
		rec, err := sess.Seal(msg.EncodeChannelRequest(&msg.ChannelRequest{Client: 5, Seq: seq, Flags: flags, Op: []byte(op)}))
		if err != nil {
			t.Fatal(err)
		}
		return clientData(rec)
	}
	deliver := func(acts Actions) {
		t.Helper()
		for _, cr := range acts.Client {
			pt, err := sess.Open(cr.Frame)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := msg.DecodeChannelReply(pt)
			if err != nil {
				t.Fatal(err)
			}
			replies = append(replies, rep)
		}
	}

	// A write: the first vote is kept across two more ecalls (one of them the
	// client's retransmission) before the second completes it.
	write := send(1, "PUT k v", 0).Submits[0]
	deliver(handleReply(makeReply(tagger, 1, write, "OK", []string{"k"})))
	send(1, "PUT k v", 0)
	deliver(handleReply(makeReply(tagger, 2, write, "OK", []string{"k"})))

	// A read: this replica's own execution installs the cache entry, which a
	// peer then asks for; the vote completes from the other two.
	read := send(2, "GET k", msg.FlagReadOnly).Submits[0]
	own := makeReply(tagger, 0, read, "VALUE v", []string{"k"})
	own.Seq = 2
	call(ECallAuthReply, func(w *wire.Writer) {
		w.Bool(true)
		w.Bool(true)
		opHash := msg.DigestOf([]byte("GET k"))
		w.Raw(opHash[:])
		own.MarshalWire(w)
	})
	query := &msg.CacheQuery{From: 1, To: 0, QueryID: 40, ReqDigest: msg.DigestOf([]byte("GET k"))}
	query.Tag = tagger.Tag(nil, query.Kind(), 1, tagInput(query))
	call(ECallCacheQuery, func(w *wire.Writer) { query.MarshalWire(w) })
	deliver(handleReply(makeReply(tagger, 1, read, "VALUE v", []string{"k"})))
	deliver(handleReply(makeReply(tagger, 2, read, "VALUE v", []string{"k"})))

	// Two cached reads: the first is confirmed by the remote it queried, the
	// second is contradicted and falls back to ordering with the operation
	// the query kept.
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
		return call(ECallCacheReply, func(w *wire.Writer) {
			w.I64(int64(time.Millisecond))
			rep.MarshalWire(w)
		})
	}
	deliver(answer(send(3, "GET k", msg.FlagReadOnly), true))
	fell := answer(send(4, "GET k", msg.FlagReadOnly), false)
	if len(fell.Submits) != 1 || string(fell.Submits[0].Op) != "GET k" {
		t.Fatalf("fallback submitted %+v, want the read it kept", fell.Submits)
	}

	// A fast-commit write: the first speculative vote is kept until the
	// second answers the client, and the durable votes confirm it.
	fast := send(5, "PUT s 1", msg.FlagFastCommit).Submits[0]
	for _, executor := range []msg.NodeID{1, 2} {
		sr := makeSpecReply(tagger, executor, fast, "OK")
		deliver(call(ECallSpecReply, func(w *wire.Writer) {
			w.I64(0)
			sr.MarshalWire(w)
		}))
	}
	deliver(handleReply(makeReply(tagger, 1, fast, "OK", []string{"s"})))
	deliver(handleReply(makeReply(tagger, 2, fast, "OK", []string{"s"})))

	// A write to the cached key, voted here: the vote keeps the first reply's
	// key list across an ecall and invalidates by it when the second reply
	// completes it. The read that follows must find the entry gone — a key
	// list kept as a view of the first argument would have been overwritten,
	// and the stale entry served.
	over := send(6, "PUT k v2", 0).Submits[0]
	deliver(handleReply(makeReply(tagger, 1, over, "OK", []string{"k"})))
	deliver(handleReply(makeReply(tagger, 2, over, "OK", []string{"k"})))
	if after := send(7, "GET k", msg.FlagReadOnly); len(after.Submits) != 1 || len(after.Queries) != 0 {
		t.Fatalf("a read after the voted write produced %d submits and %d cache queries: the write's vote did not invalidate the entry",
			len(after.Submits), len(after.Queries))
	}
	return results, replies
}

// TestECallArgumentsAreNotRetained: an ecall handler decodes its argument by
// view, and everything the Troxy keeps past the call — a vote's first result,
// and its key list, a cache entry, a fast read's fallback — is its own copy,
// not a view of the argument or of a result it returned. Overwriting every
// argument after its call, and the submits' operations in each result at the
// next call, must change nothing: not one result byte, and not what the
// client reads.
func TestECallArgumentsAreNotRetained(t *testing.T) {
	clean, cleanReplies := ecallScript(t, false)
	poisoned, poisonedReplies := ecallScript(t, true)

	want := []string{"OK", "VALUE v", "VALUE v", "OK", "OK", "OK"}
	if len(cleanReplies) != len(want) {
		t.Fatalf("the client got %d replies, want %d", len(cleanReplies), len(want))
	}
	for i, rep := range cleanReplies {
		if string(rep.Result) != want[i] {
			t.Errorf("reply %d = status %d %q, want %q", i, rep.Status, rep.Result, want[i])
		}
	}
	if len(poisoned) != len(clean) || len(poisonedReplies) != len(cleanReplies) {
		t.Fatalf("poisoned run made %d results and %d replies, clean run %d and %d",
			len(poisoned), len(poisonedReplies), len(clean), len(cleanReplies))
	}
	for i := range clean {
		if !bytes.Equal(poisoned[i], clean[i]) {
			t.Errorf("ecall %d: result differs once earlier arguments are overwritten:\n got %x\nwant %x", i, poisoned[i], clean[i])
		}
	}
	for i := range cleanReplies {
		if !bytes.Equal(poisonedReplies[i].Result, cleanReplies[i].Result) {
			t.Errorf("client reply %d = %q, want %q", i, poisonedReplies[i].Result, cleanReplies[i].Result)
		}
	}
}
