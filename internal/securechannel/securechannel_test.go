package securechannel

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func testIdentity(t testing.TB) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func handshake(t testing.TB) (client, server *Session) {
	t.Helper()
	pub, priv := testIdentity(t)
	hs, hello, err := NewClientHandshake(pub, rand.Reader)
	if err != nil {
		t.Fatalf("NewClientHandshake: %v", err)
	}
	if len(hello) != HandshakeOverheadClient {
		t.Fatalf("client hello size = %d, want %d", len(hello), HandshakeOverheadClient)
	}
	server, serverHello, err := ServerHandshake(priv, hello, rand.Reader)
	if err != nil {
		t.Fatalf("ServerHandshake: %v", err)
	}
	if len(serverHello) != HandshakeOverheadServer {
		t.Fatalf("server hello size = %d, want %d", len(serverHello), HandshakeOverheadServer)
	}
	client, err = hs.Finish(serverHello)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return client, server
}

// countingReader counts the bytes drawn from the underlying reader.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// A handshake must draw a fixed number of bytes: the simulator hands it the
// seeded stream that also draws the workload, so a draw whose length varies
// (ecdh's GenerateKey reads an extra byte on a coin flip) makes every run of
// one seed different.
func TestHandshakesDrawFixedRandomness(t *testing.T) {
	pub, priv := testIdentity(t)
	const want = 32 + 16 // key share + hello random
	for trial := 0; trial < 64; trial++ {
		cr := &countingReader{r: rand.Reader}
		_, hello, err := NewClientHandshake(pub, cr)
		if err != nil {
			t.Fatal(err)
		}
		sr := &countingReader{r: rand.Reader}
		if _, _, err := ServerHandshake(priv, hello, sr); err != nil {
			t.Fatal(err)
		}
		if cr.n != want || sr.n != want {
			t.Fatalf("trial %d: client drew %d bytes, server %d, want %d each", trial, cr.n, sr.n, want)
		}
	}
}

func TestRoundTripBothDirections(t *testing.T) {
	client, server := handshake(t)
	for i := 0; i < 5; i++ {
		rec, err := client.Seal([]byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		pt, err := server.Open(rec)
		if err != nil {
			t.Fatalf("server open %d: %v", i, err)
		}
		if string(pt) != "ping" {
			t.Errorf("plaintext = %q", pt)
		}
		rec, err = server.Seal([]byte("pong"))
		if err != nil {
			t.Fatal(err)
		}
		pt, err = client.Open(rec)
		if err != nil {
			t.Fatalf("client open %d: %v", i, err)
		}
		if string(pt) != "pong" {
			t.Errorf("plaintext = %q", pt)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	client, server := handshake(t)
	rec, err := client.Seal([]byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Open(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Open(rec); !errors.Is(err, ErrRecord) {
		t.Errorf("replayed record error = %v", err)
	}
}

func TestReorderRejected(t *testing.T) {
	client, server := handshake(t)
	r1, _ := client.Seal([]byte("1"))
	r2, _ := client.Seal([]byte("2"))
	if _, err := server.Open(r2); !errors.Is(err, ErrRecord) {
		t.Errorf("out-of-order record error = %v", err)
	}
	// After the failure, in-order delivery still works.
	if _, err := server.Open(r1); err != nil {
		t.Errorf("in-order record after failure: %v", err)
	}
}

func TestTamperRejected(t *testing.T) {
	client, server := handshake(t)
	rec, _ := client.Seal([]byte("data"))
	rec[len(rec)-1] ^= 1
	if _, err := server.Open(rec); !errors.Is(err, ErrRecord) {
		t.Errorf("tampered record error = %v", err)
	}
}

func TestDirectionKeysDiffer(t *testing.T) {
	client, server := handshake(t)
	rec, _ := client.Seal([]byte("c2s"))
	// The client must not accept its own direction's traffic (reflection).
	if _, err := client.Open(rec); !errors.Is(err, ErrRecord) {
		t.Errorf("reflected record error = %v", err)
	}
	if _, err := server.Open(rec); err != nil {
		t.Errorf("legitimate receive failed: %v", err)
	}
}

func TestServerSignatureVerified(t *testing.T) {
	pub, _ := testIdentity(t)
	_, rogusPriv := testIdentity(t) // attacker key

	hs, hello, err := NewClientHandshake(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A malicious replica (without the enclave identity key) answers.
	_, serverHello, err := ServerHandshake(rogusPriv, hello, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Finish(serverHello); !errors.Is(err, ErrHandshake) {
		t.Errorf("rogue server hello error = %v", err)
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	_, priv := testIdentity(t)
	if _, _, err := ServerHandshake(priv, []byte("junk"), rand.Reader); !errors.Is(err, ErrHandshake) {
		t.Errorf("garbage client hello error = %v", err)
	}
	pub, _ := testIdentity(t)
	hs, _, err := NewClientHandshake(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Finish([]byte("junk")); !errors.Is(err, ErrHandshake) {
		t.Errorf("garbage server hello error = %v", err)
	}
}

func TestNotEstablished(t *testing.T) {
	var s *Session
	if _, err := s.Seal([]byte("x")); !errors.Is(err, ErrNotEstablished) {
		t.Errorf("nil session Seal error = %v", err)
	}
	empty := &Session{}
	if _, err := empty.Open([]byte("x")); !errors.Is(err, ErrNotEstablished) {
		t.Errorf("empty session Open error = %v", err)
	}
}

func TestIsHandshakeFrame(t *testing.T) {
	client, _ := handshake(t)
	pub, _ := testIdentity(t)
	_, hello, err := NewClientHandshake(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !IsHandshakeFrame(hello) {
		t.Error("client hello not recognized as handshake frame")
	}
	rec, _ := client.Seal([]byte("x"))
	if IsHandshakeFrame(rec) {
		t.Error("record misclassified as handshake frame")
	}
	if IsHandshakeFrame(nil) {
		t.Error("empty frame misclassified")
	}
}

func TestQuickSealOpen(t *testing.T) {
	client, server := handshake(t)
	f := func(data []byte) bool {
		rec, err := client.Seal(data)
		if err != nil {
			return false
		}
		if len(rec) != len(data)+Overhead {
			return false
		}
		pt, err := server.Open(rec)
		return err == nil && bytes.Equal(pt, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sealRawCoalesced bypasses SealFrames' structural checks and seals an
// arbitrary plaintext as a coalesced record. It models a peer that holds the
// session keys but violates the sub-frame layout — the only way a malformed
// coalesced record can ever authenticate.
func sealRawCoalesced(t testing.TB, s *Session, pt []byte) []byte {
	t.Helper()
	var nonce [12]byte
	putSeq(nonce[:], s.sendSeq)
	s.sendSeq++
	out := make([]byte, 1, 1+len(pt)+16)
	out[0] = frameCoalesced
	return s.sendAEAD.Seal(out, nonce[:], pt, out[:1])
}

func TestCoalescedRoundTripBothDirections(t *testing.T) {
	client, server := handshake(t)
	frames := [][]byte{[]byte("one"), {}, []byte("three"), bytes.Repeat([]byte{9}, 4096)}

	rec, err := client.SealFrames(frames)
	if err != nil {
		t.Fatalf("SealFrames: %v", err)
	}
	got, err := collect(server, nil, rec)
	if err != nil {
		t.Fatalf("OpenFrames: %v", err)
	}
	if len(got) != len(frames) {
		t.Fatalf("got %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d mismatch: %d bytes vs %d", i, len(got[i]), len(frames[i]))
		}
	}

	rec, err = server.SealFrames([][]byte{[]byte("reply-a"), []byte("reply-b")})
	if err != nil {
		t.Fatalf("server SealFrames: %v", err)
	}
	got, err = collect(client, nil, rec)
	if err != nil {
		t.Fatalf("client OpenFrames: %v", err)
	}
	if len(got) != 2 || string(got[0]) != "reply-a" || string(got[1]) != "reply-b" {
		t.Errorf("server→client frames = %q", got)
	}
}

func TestOpenFramesAcceptsPlainRecord(t *testing.T) {
	// A mixed stream of plain and coalesced records must open in sequence
	// through the one OpenFrames entry point: receivers should not need to
	// know which egress path the peer used.
	client, server := handshake(t)
	r1, _ := client.Seal([]byte("plain"))
	r2, err := client.SealFrames([][]byte{[]byte("co-1"), []byte("co-2")})
	if err != nil {
		t.Fatal(err)
	}
	r3, _ := client.Seal([]byte("plain-again"))

	got, err := collect(server, nil, r1)
	if err != nil || len(got) != 1 || string(got[0]) != "plain" {
		t.Fatalf("plain via OpenFrames = %q, %v", got, err)
	}
	got, err = collect(server, nil, r2)
	if err != nil || len(got) != 2 || string(got[1]) != "co-2" {
		t.Fatalf("coalesced after plain = %q, %v", got, err)
	}
	if _, err := collect(server, nil, r3); err != nil {
		t.Fatalf("plain after coalesced: %v", err)
	}
}

func TestSealFramesEmptyFlushRejected(t *testing.T) {
	client, _ := handshake(t)
	if _, err := client.SealFrames(nil); !errors.Is(err, ErrRecord) {
		t.Errorf("SealFrames(nil) error = %v", err)
	}
	if _, err := client.SealFrames([][]byte{}); !errors.Is(err, ErrRecord) {
		t.Errorf("SealFrames(empty) error = %v", err)
	}
	// The rejected flushes must not have burned a sequence number.
	if _, err := client.Seal([]byte("still in sync")); err != nil {
		t.Fatal(err)
	}
	if client.sendSeq != 1 {
		t.Errorf("sendSeq after rejected flushes = %d, want 1", client.sendSeq)
	}
}

func TestSealFramesMaxSizeFlush(t *testing.T) {
	client, server := handshake(t)
	// One frame whose header+payload exactly fills MaxCoalescedPlaintext.
	exact := make([]byte, MaxCoalescedPlaintext-4)
	rec, err := client.SealFrames([][]byte{exact})
	if err != nil {
		t.Fatalf("max-size flush rejected: %v", err)
	}
	got, err := collect(server, nil, rec)
	if err != nil || len(got) != 1 || len(got[0]) != len(exact) {
		t.Fatalf("max-size round trip: %d frames, %v", len(got), err)
	}
	// One byte over must be rejected before any sealing happens.
	over := make([]byte, MaxCoalescedPlaintext-4+1)
	if _, err := client.SealFrames([][]byte{over}); !errors.Is(err, ErrRecord) {
		t.Errorf("oversized flush error = %v", err)
	}
	if client.sendSeq != 1 {
		t.Errorf("sendSeq after oversized flush = %d, want 1", client.sendSeq)
	}
}

func TestOpenFramesTruncatedSubFrame(t *testing.T) {
	cases := []struct {
		name string
		pt   []byte
	}{
		{"empty plaintext", nil},
		{"truncated header", []byte{1, 0, 0}},
		{"length beyond payload", []byte{5, 0, 0, 0, 'a', 'b'}},
		{"good frame then truncated trailer", append([]byte{1, 0, 0, 0, 'x'}, 9, 0, 0, 0, 'y')},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := handshake(t)
			rec := sealRawCoalesced(t, client, tc.pt)
			if _, err := collect(server, nil, rec); !errors.Is(err, ErrRecord) {
				t.Errorf("malformed coalesced plaintext %q error = %v", tc.pt, err)
			}
		})
	}
}

func TestOpenFramesCrossTypeRejected(t *testing.T) {
	// The record type byte is AEAD additional data: a plain record cannot be
	// reinterpreted as coalesced (its plaintext bytes would be parsed as
	// sub-frame headers) nor a coalesced one as plain.
	client, server := handshake(t)
	rec, _ := client.Seal([]byte("plain"))
	rec[0] = frameCoalesced
	if _, err := collect(server, nil, rec); !errors.Is(err, ErrRecord) {
		t.Errorf("plain-as-coalesced error = %v", err)
	}

	client2, server2 := handshake(t)
	rec2, err := client2.SealFrames([][]byte{[]byte("co")})
	if err != nil {
		t.Fatal(err)
	}
	rec2[0] = frameRecord
	if _, err := server2.Open(rec2); !errors.Is(err, ErrRecord) {
		t.Errorf("coalesced-as-plain error = %v", err)
	}
}

func TestCoalescedReplayAndTamperRejected(t *testing.T) {
	client, server := handshake(t)
	rec, err := client.SealFrames([][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), rec...)
	tampered[len(tampered)-1] ^= 1
	if _, err := collect(server, nil, tampered); !errors.Is(err, ErrRecord) {
		t.Errorf("tampered coalesced record error = %v", err)
	}
	// The failed open must not advance recvSeq: the genuine record still opens.
	if _, err := collect(server, nil, rec); err != nil {
		t.Fatalf("genuine record after tamper rejection: %v", err)
	}
	if _, err := collect(server, nil, rec); !errors.Is(err, ErrRecord) {
		t.Errorf("replayed coalesced record error = %v", err)
	}
}

func TestOpenFramesNotEstablished(t *testing.T) {
	var s *Session
	if _, err := collect(s, nil, []byte{frameCoalesced}); !errors.Is(err, ErrNotEstablished) {
		t.Errorf("nil session error = %v", err)
	}
	if _, err := (&Session{}).SealFrames([][]byte{[]byte("x")}); !errors.Is(err, ErrNotEstablished) {
		t.Errorf("zero session error = %v", err)
	}
}
