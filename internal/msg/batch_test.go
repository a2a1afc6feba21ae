package msg

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/troxy-bft/troxy/internal/wire"
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
	if _, err := openFramed([]byte{byte(KindBatch), 0xff, 0xff, 0xff, 0x00}); err == nil {
		t.Error("expected error for truncated batch")
	}
}

// TestRequestDigestIsTheHashOfTheEncoding: Digest hashes a request where it
// lies instead of marshalling it first, and has to arrive at the value it
// always had — the SHA-256 of the canonical encoding — or replicas of two
// builds would certify different batches. The golden values were printed by
// the marshalling implementation.
func TestRequestDigestIsTheHashOfTheEncoding(t *testing.T) {
	reqs := []OrderRequest{
		{Origin: 2, Client: 77, ClientSeq: 1234, Flags: FlagReadOnly, Op: []byte("GET key-0001")},
		{Origin: NoNode},
		{Origin: 0, Client: 1 << 40, ClientSeq: 1<<64 - 1, Flags: FlagFastCommit, Op: bytes.Repeat([]byte{'v'}, 4096)},
	}
	golden := []string{
		"3f76d2465448a1601993e141c21e5e298860a0901fce440a415f6846b94756c8",
		"5576843ca7cad966cbf21be5adf48289b672443e1cf662ebb1e9d35db05f3115",
		"23719d3061560c1c9a7ea4ad7635b7c7589c08dce95b46bc75b37e6205a5ae2b",
	}
	for i := range reqs {
		w := wire.NewWriter(64)
		reqs[i].MarshalWire(w)
		if got := reqs[i].Digest(); got != DigestOf(w.Bytes()) || fmt.Sprintf("%x", got) != golden[i] {
			t.Errorf("request %d: digest %x, hash of the encoding %x, golden %s", i, got, DigestOf(w.Bytes()), golden[i])
		}
		if n := w.Len() - len(reqs[i].Op); n != orderRequestHeaderLen {
			t.Errorf("request %d: MarshalWire writes %d bytes beside the operation, Digest lays out %d", i, n, orderRequestHeaderLen)
		}
	}
	if got := fmt.Sprintf("%x", (&Batch{Reqs: reqs}).Digest()); got != "a998ff8f8749bf4bc43f4325da9e6b842d2259a4bdd7cae93dbd06c8a542260b" {
		t.Errorf("batch digest %s changed", got)
	}
}

// TestCloneExceptSharesWhatIsOwned: the copy a log keeps of a batch, a value,
// owns its operations — one allocation, each operation cap-limited to itself — except
// those the holder says it owns already, which it shares.
func TestCloneExceptSharesWhatIsOwned(t *testing.T) {
	b := &Batch{Reqs: []OrderRequest{
		{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT a 1")},
		{Origin: 2, Client: 8, ClientSeq: 1, Op: []byte("PUT own 2")},
		{Origin: NoNode},
		{Origin: 1, Client: 9, ClientSeq: 4, Op: []byte("PUT c 3")},
	}}
	want := b.Digest()
	c := b.CloneExcept(func(req *OrderRequest) bool { return req.Client == 8 })
	if c.Digest() != want || !reflect.DeepEqual(c.Reqs, b.Reqs) {
		t.Fatalf("the copy differs from the batch:\n got  %v\n want %v", c.Reqs, b.Reqs)
	}
	for i := range c.Reqs {
		got, orig := c.Reqs[i].Op, b.Reqs[i].Op
		switch {
		case len(orig) == 0:
		case c.Reqs[i].Client == 8:
			if &got[0] != &orig[0] {
				t.Errorf("request %d is the holder's own and was copied", i)
			}
		case &got[0] == &orig[0]:
			t.Errorf("request %d is shared with the batch it was cloned from", i)
		case cap(got) != len(got):
			t.Errorf("request %d: cap %d beyond its %d bytes reaches into its neighbour", i, cap(got), len(got))
		}
	}
	owned := func(req *OrderRequest) bool { return req.Client == 8 }
	if n := testing.AllocsPerRun(100, func() { b.CloneExcept(owned) }); n != 2 {
		t.Errorf("a copy takes %v allocations, want 2: its request slice, one slab of operations", n)
	}
	for i := range b.Reqs { // the source may be overwritten
		for j := range b.Reqs[i].Op {
			if b.Reqs[i].Client != 8 {
				b.Reqs[i].Op[j] = 0xA5
			}
		}
	}
	if string(c.Reqs[0].Op) != "PUT a 1" || string(c.Reqs[3].Op) != "PUT c 3" {
		t.Errorf("the copy changed with its source: %q, %q", c.Reqs[0].Op, c.Reqs[3].Op)
	}
	if all := b.CloneExcept(nil); &all.Reqs[1].Op[0] == &b.Reqs[1].Op[0] {
		t.Error("Clone shares an operation")
	}
}
