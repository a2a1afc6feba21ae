package msg

import (
	"bytes"
	"testing"

	"github.com/troxy-bft/troxy/internal/wire"
)

// covered returns a copy of what a point-to-point MAC covers of m.
func covered(m Message) []byte {
	w := wire.NewWriter(0)
	return bytes.Clone(Covered(w, m, EncodeBody(m)))
}

// TestCoveredIsTheBodyExceptForForwardAndPrepare: a kind that orders no
// request is covered byte for byte — Covered hands back the very body — and
// CoversDigests names exactly the kinds that are not.
func TestCoveredIsTheBodyExceptForForwardAndPrepare(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range sampleMessages() {
		seen[m.Kind()] = true
		body := EncodeBody(m)
		w := wire.NewWriter(0)
		got := Covered(w, m, body)
		whole := len(got) == len(body) && (len(body) == 0 || &got[0] == &body[0])
		if whole == m.Kind().CoversDigests() {
			t.Errorf("%s: covered whole = %v, CoversDigests = %v", m.Kind(), whole, m.Kind().CoversDigests())
		}
		if whole && w.Len() != 0 {
			t.Errorf("%s: %d bytes written for a kind covered whole", m.Kind(), w.Len())
		}
	}
	for k := range kindNames {
		if !seen[k] {
			t.Errorf("no sample message of kind %s", k)
		}
		if k.CoversDigests() != (k == KindForward || k == KindPrepare) {
			t.Errorf("%s: CoversDigests = %v", k, k.CoversDigests())
		}
	}
}

// TestTroxyTaggedKindsAreTheCacheExchangeAndReplyBatches: the kinds that
// travel without a point-to-point MAC are exactly the three a Troxy tags, and
// none of them orders a request.
func TestTroxyTaggedKindsAreTheCacheExchangeAndReplyBatches(t *testing.T) {
	for k := range kindNames {
		want := k == KindCacheQuery || k == KindCacheReply || k == KindReplyBatch
		if k.TroxyTagged() != want || (want && k.CoversDigests()) {
			t.Errorf("%s: TroxyTagged = %v, CoversDigests = %v", k, k.TroxyTagged(), k.CoversDigests())
		}
	}
}

// TestCoveredBindsEveryField: the covered encoding of a FORWARD is its
// request's digest, that of a PREPARE its view, sequence number, request count,
// request digests and certificate — so changing any field of either changes
// it, and its length does not depend on the size of the operations.
func TestCoveredBindsEveryField(t *testing.T) {
	req := sampleRequest()
	digest := req.Digest()
	if got := covered(&Forward{Req: sampleRequest()}); !bytes.Equal(got, digest[:]) {
		t.Errorf("covered FORWARD = %x, want the request digest %x", got, digest)
	}

	prepare := func(mutate func(*Prepare)) []byte {
		p := &Prepare{View: 3, Seq: 9, Batch: *benchBatch(4), Cert: sampleCert()}
		mutate(p)
		return covered(p)
	}
	base := prepare(func(*Prepare) {})
	if want := 8 + 8 + 4 + 4*len(digest) + 4 + 4 + 8 + 4 + len(sampleCert().MAC); len(base) != want {
		t.Errorf("covered PREPARE of four requests is %d bytes, want %d", len(base), want)
	}
	for name, mutate := range map[string]func(*Prepare){
		"view":         func(p *Prepare) { p.View++ },
		"seq":          func(p *Prepare) { p.Seq++ },
		"count":        func(p *Prepare) { p.Batch.Reqs = p.Batch.Reqs[:3] },
		"order":        func(p *Prepare) { p.Batch.Reqs[0], p.Batch.Reqs[1] = p.Batch.Reqs[1], p.Batch.Reqs[0] },
		"origin":       func(p *Prepare) { p.Batch.Reqs[2].Origin++ },
		"client":       func(p *Prepare) { p.Batch.Reqs[2].Client++ },
		"client seq":   func(p *Prepare) { p.Batch.Reqs[2].ClientSeq++ },
		"flags":        func(p *Prepare) { p.Batch.Reqs[2].Flags ^= FlagFastCommit },
		"op":           func(p *Prepare) { p.Batch.Reqs[3].Op[0] ^= 1 },
		"op length":    func(p *Prepare) { p.Batch.Reqs[3].Op = p.Batch.Reqs[3].Op[:4] },
		"cert replica": func(p *Prepare) { p.Cert.Replica++ },
		"cert counter": func(p *Prepare) { p.Cert.Counter++ },
		"cert value":   func(p *Prepare) { p.Cert.Value++ },
		"cert mac":     func(p *Prepare) { p.Cert.MAC = bytes.Clone(p.Cert.MAC); p.Cert.MAC[0] ^= 1 },
		"cert mac len": func(p *Prepare) { p.Cert.MAC = p.Cert.MAC[:4] },
	} {
		if bytes.Equal(prepare(mutate), base) {
			t.Errorf("a PREPARE with another %s has the same covered encoding", name)
		}
	}
	big := prepare(func(p *Prepare) {
		for i := range p.Batch.Reqs {
			p.Batch.Reqs[i].Op = make([]byte, 4096)
		}
	})
	if len(big) != len(base) {
		t.Errorf("covered PREPARE grew from %d to %d bytes with 4 KiB operations", len(base), len(big))
	}
}

// TestDecodedRequestHasNoDigestUntilComputed: no wire decoder installs a
// request digest, and decoding into a request that carried one forgets it — a
// replica checks certificates and MACs against digests of the bytes it
// received, never against a digest that came with them. SetDigest is for the
// one decoder whose input is this replica's own trusted subsystem.
func TestDecodedRequestHasNoDigestUntilComputed(t *testing.T) {
	first, second := sampleRequest(), sampleRequest()
	second.Op = []byte("PUT key-17 other")
	want := second.Digest()

	into := first
	if into.Digest() == want {
		t.Fatal("two different requests with one digest")
	}
	if err := into.UnmarshalWire(wire.NewReader(marshalOwned(&second))); err != nil {
		t.Fatal(err)
	}
	if into.Digest() != want {
		t.Error("a request decoded over another kept the other's digest")
	}

	lied := sampleRequest()
	lied.SetDigest(want)
	if lied.Digest() != want {
		t.Error("SetDigest did not install the digest")
	}
	fwd := &Forward{}
	if err := fwd.UnmarshalWire(wire.NewReader(EncodeBody(&Forward{Req: lied}))); err != nil {
		t.Fatal(err)
	}
	if fwd.Req.Digest() != first.Digest() {
		t.Error("an installed digest survived the wire")
	}
}

// TestFailedDecodePreallocatesWithinBounds: a slice header is four bytes a
// peer chose, and the decoders reserve room before the first element has
// decoded. Whatever a header claims — up to wire.MaxSliceLen — a decode that
// fails on the first element leaves no more than a small constant behind,
// for every preallocating decoder of the package.
func TestFailedDecodePreallocatesWithinBounds(t *testing.T) {
	hostile := func(prefix int) *wire.Reader {
		w := wire.NewWriter(0)
		w.Raw(make([]byte, prefix))
		w.U32(wire.MaxSliceLen)
		return wire.NewReader(w.Bytes())
	}
	var (
		batch  Batch
		vc     ViewChange
		nv     NewView
		sreq   StateRequest
		prefix StatePrefix
	)
	cases := []struct {
		name   string
		decode func() error
		cap    func() int
		bound  int
	}{
		{"Batch.Reqs", func() error { return batch.UnmarshalWire(hostile(0)) }, func() int { return cap(batch.Reqs) }, 64},
		{"ViewChange.Prepared", func() error { return vc.UnmarshalWire(hostile(4 + 8 + 8 + 32)) }, func() int { return cap(vc.Prepared) }, 64},
		{"NewView.ViewChanges", func() error { return nv.UnmarshalWire(hostile(4 + 8)) }, func() int { return cap(nv.ViewChanges) }, 16},
		{"StateRequest.Chunks", func() error { return sreq.UnmarshalWire(hostile(8)) }, func() int { return cap(sreq.Chunks) }, 64},
		{"StatePrefix.Entries", func() error { return prefix.UnmarshalWire(hostile(8 + 8)) }, func() int { return cap(prefix.Entries) }, 64},
	}
	for _, tc := range cases {
		if err := tc.decode(); err == nil {
			t.Errorf("%s: a header of %d elements and no element decoded", tc.name, wire.MaxSliceLen)
		}
		if got := tc.cap(); got > tc.bound {
			t.Errorf("%s: a failed decode left room for %d elements, bound is %d", tc.name, got, tc.bound)
		}
	}
	// One past the limit reserves nothing at all.
	w := wire.NewWriter(0)
	w.U32(wire.MaxSliceLen + 1)
	var fresh Batch
	if err := fresh.UnmarshalWire(wire.NewReader(w.Bytes())); err == nil || cap(fresh.Reqs) != 0 {
		t.Errorf("a header past MaxSliceLen: err = %v, room for %d", err, cap(fresh.Reqs))
	}
}

// FuzzCoveredEncoding: the MAC of a FORWARD or PREPARE covers the covered
// encoding, not the body, so the covered encoding has to bind the body — two
// bodies of one kind that both decode and are covered alike are the same
// bytes. (The encoding is fixed-width integers and length-prefixed strings,
// Open rejects trailing bytes, and the requests enter by SHA-256.)
func FuzzCoveredEncoding(f *testing.F) {
	prep := &Prepare{View: 1, Seq: 2, Batch: *benchBatch(2), Cert: sampleCert()}
	body := EncodeBody(prep)
	f.Add(body, body, true)
	for _, at := range []int{0, 8, 16, 20, 30, len(body) - 40, len(body) - 1} {
		other := bytes.Clone(body)
		other[at] ^= 1
		f.Add(body, other, true)
	}
	f.Add(body, body[:len(body)-1], true)
	f.Add(body, append(bytes.Clone(body), 0), true)
	fwd := EncodeBody(&Forward{Req: sampleRequest()})
	f.Add(fwd, fwd, false)
	for _, at := range []int{0, 4, 12, 20, 21, len(fwd) - 1} {
		other := bytes.Clone(fwd)
		other[at] ^= 1
		f.Add(fwd, other, false)
	}
	f.Add(fwd, body, false)
	f.Fuzz(func(t *testing.T, a, b []byte, prepare bool) {
		kind := KindForward
		if prepare {
			kind = KindPrepare
		}
		ma, err := (&Envelope{Kind: kind, Body: a}).Open()
		if err != nil {
			return
		}
		wa := wire.NewWriter(0)
		ca := Covered(wa, ma, a)
		if !bytes.Equal(a, EncodeBody(ma)) {
			t.Fatalf("a %s body that decodes does not re-encode to itself", kind)
		}
		mb, err := (&Envelope{Kind: kind, Body: b}).Open()
		if err != nil {
			return
		}
		wb := wire.NewWriter(0)
		if alike, same := bytes.Equal(ca, Covered(wb, mb, b)), bytes.Equal(a, b); alike != same {
			t.Fatalf("two %s bodies, equal = %v, covered alike = %v", kind, same, alike)
		}
	})
}
