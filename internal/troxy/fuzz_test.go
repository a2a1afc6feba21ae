package troxy

import (
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// spanOf reports whether s lies inside b: a view of it, not a copy. An empty
// s is one trivially.
func spanOf(b, s []byte) bool {
	if len(s) == 0 {
		return true
	}
	for off := 0; off+len(s) <= len(b); off++ {
		if &b[off] == &s[0] {
			return true
		}
	}
	return false
}

// FuzzDecodeActions holds the host's half of the boundary codec to what the
// replica relies on when it sends what it decodes as it is. Whatever the bytes,
// decodeActions does not panic; every Body it returns is a span of its input
// (and a client record's Frame a span of its Body), so the copy-out is the one
// copy on the way out; and a cache message's Body opens, on its own, as the
// message its Kind names, which is how the peer's replica opens it. The seeds
// are the encodings of real Actions.
func FuzzDecodeActions(f *testing.F) {
	_, pub, tagger := testSecrets(f)
	origin, peer := fastReadCore(f, 0, 5), fastReadCore(f, 1, 6)
	seed := func(acts Actions) {
		w := wire.NewWriter(256)
		encodeActions(w, &acts)
		f.Add(w.Bytes())
	}

	seed(Actions{})
	cc := openChannel(f, origin, pub, 1, 100)
	write := cc.request(f, origin, 0, "PUT w v", false)
	seed(write)
	req := write.Submits[0]
	req.Op = append([]byte(nil), req.Op...) // a view of the Core's scratch
	origin.HandleReply(0, makeReply(tagger, 1, req, "OK", []string{"w"}))
	seed(must(origin.HandleReply(0, makeReply(tagger, 2, req, "OK", []string{"w"}))))
	read := cc.request(f, origin, 0, "GET k", true)
	seed(read)
	seed(must(peer.HandleCacheQuery(openPeer[*msg.CacheQuery](f, read.Queries[0]))))

	f.Fuzz(func(t *testing.T, b []byte) {
		acts, err := decodeActions(b, &Actions{})
		if err != nil {
			return
		}
		for _, cr := range acts.Client {
			if !spanOf(b, cr.Body) || !spanOf(cr.Body, cr.Frame) {
				t.Fatalf("a client record's Body or Frame is not a view of the input")
			}
		}
		for _, pm := range acts.Queries {
			if !spanOf(b, pm.Body) {
				t.Fatalf("the body of a %v is not a view of the input", pm.Kind)
			}
			m, err := (&msg.Envelope{Kind: pm.Kind, Body: pm.Body}).Open()
			if err != nil || m.Kind() != pm.Kind {
				t.Fatalf("the body of a %v does not open as one: %v", pm.Kind, err)
			}
		}
	})
}

// must is the Actions of a Core call that cannot fail.
func must(acts Actions, err error) Actions {
	if err != nil {
		panic(err)
	}
	return acts
}
