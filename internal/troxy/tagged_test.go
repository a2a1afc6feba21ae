package troxy

import (
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
)

// fastReadCore returns a provisioned core of a group of three whose cache
// holds "GET k" → "VALUE v".
func fastReadCore(t testing.TB, self msg.NodeID, seed int64) *Core {
	t.Helper()
	core := NewCore(Config{Self: self, N: 3, F: 1, Seed: seed, Classify: classifyKV, FastReads: true,
		QueryTimeout: 100 * time.Millisecond})
	secrets, _, _ := testSecrets(t)
	if err := core.ProvisionSecrets(secrets); err != nil {
		t.Fatal(err)
	}
	core.cache.Put(msg.DigestOf([]byte("GET k")), []byte("VALUE v"), []string{"k"})
	return core
}

// TestCacheMessageForAnotherTroxyIsRejected: the cache exchange travels without
// a host MAC, so the tags name the destination. Two Troxies each start the
// first fast read of their lifetime — QueryID 1 — for the same operation, and
// both ask replica 1. Replica 1's answer to one of them, delivered to the
// other by a faulty host, matches that one's pending query in everything but
// its addressee: it is rejected and counted, and the fast read it would have
// completed stays pending. Its addressee takes it. A query addressed to
// another Troxy is not answered either.
func TestCacheMessageForAnotherTroxyIsRejected(t *testing.T) {
	_, pub, _ := testSecrets(t)
	// The seeds make both ask replica 1, checked below.
	querier, victim, remote := fastReadCore(t, 0, 5), fastReadCore(t, 2, 6), fastReadCore(t, 1, 7)
	start := func(c *Core) msg.CacheQuery {
		t.Helper()
		acts := openChannel(t, c, pub, 1, 100).request(t, c, 0, "GET k", true)
		if len(acts.Queries) != 1 || acts.Queries[0].To != 1 {
			t.Fatalf("Troxy %d's fast read sent %+v, want one query to replica 1", c.cfg.Self, acts.Queries)
		}
		return *openPeer[*msg.CacheQuery](t, acts.Queries[0]) // from a copy: the Core's scratch is its next call's
	}
	q, stranger := start(querier), start(victim)
	if q.QueryID != stranger.QueryID || q.ReqDigest != stranger.ReqDigest {
		t.Fatalf("queries %+v and %+v differ in ID or operation", q, stranger)
	}
	acts, err := remote.HandleCacheQuery(&q)
	if err != nil || len(acts.Queries) != 1 || acts.Queries[0].To != 0 {
		t.Fatalf("replica 1 answered %+v, %v: want one reply to replica 0", acts.Queries, err)
	}
	reply := *openPeer[*msg.CacheReply](t, acts.Queries[0])

	out, err := victim.HandleCacheReply(time.Millisecond, &reply)
	if err != nil || len(out.Client)+len(out.Submits)+len(out.Queries) != 0 {
		t.Fatalf("a reply addressed to Troxy 0 acted at Troxy 2: %+v, %v", out, err)
	}
	if st := victim.Stats(); st.BadQueries != 1 || st.FastReadOK != 0 || len(victim.queries) != 1 {
		t.Errorf("Troxy 2 after the redirected reply: BadQueries %d, FastReadOK %d, %d fast reads pending; want 1, 0, 1",
			st.BadQueries, st.FastReadOK, len(victim.queries))
	}
	if out, err := querier.HandleCacheReply(time.Millisecond, &reply); err != nil || len(out.Client) != 1 {
		t.Fatalf("the addressee did not complete its fast read: %+v, %v", out, err)
	}

	if out, err := victim.HandleCacheQuery(&q); err != nil || len(out.Queries) != 0 {
		t.Errorf("a query addressed to replica 1 was answered by Troxy 2: %+v, %v", out.Queries, err)
	}
	if st := victim.Stats(); st.BadQueries != 2 {
		t.Errorf("BadQueries = %d after a misaddressed query, want 2", st.BadQueries)
	}
}

// TestFastReadsInFlightEndAtTheQueryTimeout holds Core.queries and
// Core.queryOf to their stated bound: fast reads whose peers never answer all
// end at the first Tick past QueryTimeout, each handed to ordering, and leave
// both tables empty; an answer that arrives after that finds nothing.
func TestFastReadsInFlightEndAtTheQueryTimeout(t *testing.T) {
	core, pub, tagger := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)
	const reads = 12
	var late []msg.CacheReply
	for i := 0; i < reads; i++ {
		op := fmt.Sprintf("GET k%d", i)
		core.cache.Put(msg.DigestOf([]byte(op)), []byte("v"), []string{op[4:]})
		acts := cc.request(t, core, time.Duration(i)*time.Millisecond, op, true)
		if len(acts.Queries) != 1 {
			t.Fatalf("read %d sent %d cache queries, want 1", i, len(acts.Queries))
		}
		q := openPeer[*msg.CacheQuery](t, acts.Queries[0])
		late = append(late, msg.CacheReply{From: acts.Queries[0].To, To: q.From, QueryID: q.QueryID,
			ReqDigest: q.ReqDigest, Found: true, ReplyDigest: msg.DigestOf([]byte("v"))})
	}
	if len(core.queries) != reads || len(core.queryOf) != reads {
		t.Fatalf("%d and %d entries for %d fast reads in flight", len(core.queries), len(core.queryOf), reads)
	}
	if out := core.Tick(99 * time.Millisecond); len(out.Submits) != 0 {
		t.Fatalf("%d fast reads ended before their timeout", len(out.Submits))
	}
	out := core.Tick(time.Second)
	if len(out.Submits) != reads {
		t.Errorf("%d of %d unanswered fast reads fell back to ordering", len(out.Submits), reads)
	}
	if len(core.queries)+len(core.queryOf) != 0 {
		t.Fatalf("%d and %d entries outlive the timeout", len(core.queries), len(core.queryOf))
	}
	before := core.Stats()
	for i := range late {
		rep := &late[i]
		rep.Tag = tagger.Tag(nil, rep.Kind(), rep.From, tagInput(rep))
		out, err := core.HandleCacheReply(2*time.Second, rep)
		if err != nil || len(out.Client)+len(out.Submits)+len(out.Queries) != 0 {
			t.Errorf("a late answer to query %d acted: %+v, %v", rep.QueryID, out, err)
		}
	}
	if after := core.Stats(); after != before || len(core.queries)+len(core.queryOf) != 0 {
		t.Errorf("late answers changed the Core: stats %+v, were %+v", after, before)
	}
}
