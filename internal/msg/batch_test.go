package msg

import (
	"reflect"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	cases := []*Batch{
		{},                                      // empty batch: the view-change no-op filler
		{Reqs: []OrderRequest{sampleRequest()}}, // degenerate single-request batch
		{Reqs: []OrderRequest{
			sampleRequest(),
			{Origin: 4, Client: 78, ClientSeq: 5, Flags: FlagReadOnly, Op: []byte("GET other")},
			{Origin: NoNode}, // embedded no-op
		}},
	}
	for _, b := range cases {
		got := roundTrip(t, b)
		if !reflect.DeepEqual(got, b) {
			t.Errorf("batch round trip mismatch:\n got  %#v\n want %#v", got, b)
		}
	}
}

func TestBatchDigest(t *testing.T) {
	req := sampleRequest()
	single := &Batch{Reqs: []OrderRequest{req}}

	// A single-request batch digest must differ from the bare request digest
	// (domain separation), and the empty batch must have a defined digest
	// distinct from everything else.
	if single.Digest() == req.Digest() {
		t.Error("single-request batch digest must not equal the request digest")
	}
	empty := &Batch{}
	if empty.Digest() == single.Digest() {
		t.Error("empty batch digest must differ from non-empty batch digest")
	}

	// Order matters: [a,b] and [b,a] are different proposals.
	other := OrderRequest{Origin: 4, Client: 78, ClientSeq: 5, Op: []byte("PUT b 2")}
	ab := &Batch{Reqs: []OrderRequest{req, other}}
	ba := &Batch{Reqs: []OrderRequest{other, req}}
	if ab.Digest() == ba.Digest() {
		t.Error("batch digest must depend on request order")
	}

	// Taking the batch digest leaves each request carrying its own, and a
	// carried digest is the one a fresh copy of the request computes.
	fresh := sampleRequest()
	if !ab.Reqs[0].digested || ab.Reqs[0].digest != fresh.Digest() {
		t.Error("the batch digest must leave the per-request digests carried")
	}
	if cp := ab.Reqs[0]; cp.Digest() != fresh.Digest() {
		t.Error("a copy of a digested request must carry the same digest")
	}
}

func TestBatchDecodeRejectsGarbage(t *testing.T) {
	// A length header promising more requests than the buffer holds.
	if _, err := Decode([]byte{byte(KindBatch), 0xff, 0xff, 0xff, 0x00}); err == nil {
		t.Error("expected error for truncated batch")
	}
}
