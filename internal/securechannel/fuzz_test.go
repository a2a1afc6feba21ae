package securechannel

import (
	"bytes"
	"crypto/ed25519"
	"slices"
	"testing"
)

// fuzzIdentity derives a fixed server identity so every fuzz execution sees
// the same key material (the fuzzer must explore the parser, not the key
// space).
func fuzzIdentity(t testing.TB) ed25519.PrivateKey {
	t.Helper()
	seed := bytes.Repeat([]byte{0x42}, ed25519.SeedSize)
	return ed25519.NewKeyFromSeed(seed)
}

// zeroReader is a deterministic randomness source for handshakes under fuzz.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x5a
	}
	return len(p), nil
}

// FuzzServerHandshake throws arbitrary client hellos at the server side of
// the handshake: it must reject malformed frames with an error and never
// panic, and a rejected hello must not produce a session.
func FuzzServerHandshake(f *testing.F) {
	identity := fuzzIdentity(f)
	pub := identity.Public().(ed25519.PublicKey)

	// Seed with a genuine hello (must be accepted) and truncations of it.
	_, hello, err := NewClientHandshake(pub, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hello)
	f.Add(hello[:len(hello)/2])
	f.Add([]byte{})
	f.Add([]byte{frameClientHello})
	f.Add(bytes.Repeat([]byte{0xff}, HandshakeOverheadClient))

	f.Fuzz(func(t *testing.T, clientHello []byte) {
		sess, serverHello, err := ServerHandshake(identity, clientHello, zeroReader{})
		if err != nil {
			if sess != nil {
				t.Fatal("failed handshake returned a session")
			}
			return
		}
		if sess == nil || !sess.Established() {
			t.Fatal("accepted handshake without an established session")
		}
		if !IsHandshakeFrame(serverHello) {
			t.Fatal("server hello is not marked as a handshake frame")
		}
	})
}

// FuzzClientFinish throws arbitrary server hellos at a client handshake:
// only the genuine hello may complete, everything else must error without
// panicking. Completed handshakes must agree on the record keys.
func FuzzClientFinish(f *testing.F) {
	identity := fuzzIdentity(f)
	pub := identity.Public().(ed25519.PublicKey)

	hs, hello, err := NewClientHandshake(pub, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	srv, serverHello, err := ServerHandshake(identity, hello, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(serverHello)
	f.Add(serverHello[:len(serverHello)/2])
	f.Add([]byte{})
	f.Add([]byte{frameServerHello})
	f.Add(bytes.Repeat([]byte{0x00}, HandshakeOverheadServer))

	f.Fuzz(func(t *testing.T, sh []byte) {
		// A fresh client handshake per execution: Finish consumes state.
		cli, chello, err := NewClientHandshake(pub, zeroReader{})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := cli.Finish(sh)
		if err != nil {
			if sess != nil {
				t.Fatal("failed finish returned a session")
			}
			return
		}
		if sess == nil || !sess.Established() {
			t.Fatal("accepted finish without an established session")
		}
		// The accepted hello must actually interoperate: it can only be a
		// hello the server produced for this client hello (the deterministic
		// randSource makes the genuine one reproducible).
		srv2, sh2, err := ServerHandshake(identity, chello, zeroReader{})
		if err != nil || !bytes.Equal(sh2, sh) {
			t.Fatalf("client accepted a server hello the server would not produce (err=%v)", err)
		}
		record, err := sess.Seal([]byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv2.Open(record); err != nil {
			t.Fatalf("accepted session does not interoperate: %v", err)
		}
	})
	_ = srv
	_ = hs
}

// FuzzSessionOpen throws arbitrary records at an established session: only
// genuine sealed records may open, tampering must error, and Open must
// never panic regardless of framing. OpenFrames, given the same record and a
// buffer to decrypt into, agrees with Open on every plain record.
func FuzzSessionOpen(f *testing.F) {
	identity := fuzzIdentity(f)
	pub := identity.Public().(ed25519.PublicKey)
	hs, hello, err := NewClientHandshake(pub, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	srv, serverHello, err := ServerHandshake(identity, hello, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	cli, err := hs.Finish(serverHello)
	if err != nil {
		f.Fatal(err)
	}

	genuine, err := cli.Seal([]byte("request payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte{})
	f.Add([]byte{frameRecord, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xa5}, 4+16+Overhead))

	f.Fuzz(func(t *testing.T, record []byte) {
		// Fresh sessions per execution: sequence numbers advance on use,
		// and the deterministic randomness makes them byte-reproducible.
		srvSess, shello, err := ServerHandshake(identity, hello, zeroReader{})
		if err != nil {
			t.Fatal(err)
		}
		cli2, _, err := NewClientHandshake(pub, zeroReader{})
		if err != nil {
			t.Fatal(err)
		}
		cliSess, err := cli2.Finish(shello)
		if err != nil {
			t.Fatal(err)
		}

		// Arbitrary record: must not panic, and anything a fresh session
		// accepts must be a frame the client's deterministic session would
		// genuinely seal from the recovered plaintext — i.e. no forgery.
		viaFrames := *srvSess // the same receive state, for the other entry point
		pristine := bytes.Clone(record)
		pt, err := srvSess.Open(record)
		frames, ferr := viaFrames.OpenFrames(make([]byte, 0, 64), record)
		if !bytes.Equal(record, pristine) {
			t.Fatal("opening a record changed it")
		}
		if len(record) > 0 && record[0] == frameRecord {
			got := slices.Collect(frames.All())
			if (err == nil) != (ferr == nil) || (err == nil && (len(got) != 1 || !bytes.Equal(got[0], pt))) {
				t.Fatalf("Open = %q, %v but OpenFrames = %q, %v", pt, err, got, ferr)
			}
			checkFrameViews(t, frames)
		}
		if err != nil {
			return
		}
		want, err := cliSess.Seal(pt)
		if err != nil || !bytes.Equal(want, record) {
			t.Fatalf("server opened a record the client would not produce (err=%v)", err)
		}
	})
	_ = srv
}

// FuzzIsHandshakeFrame ensures the frame classifier is total: any byte
// string classifies without panicking, and classification agrees with the
// leading frame byte.
func FuzzIsHandshakeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameClientHello})
	f.Add([]byte{frameServerHello})
	f.Add([]byte{frameRecord, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		got := IsHandshakeFrame(b)
		want := len(b) > 0 && (b[0] == frameClientHello || b[0] == frameServerHello)
		if got != want {
			t.Fatalf("IsHandshakeFrame(%x) = %v, want %v", b, got, want)
		}
	})
}

// FuzzOpenFrames throws arbitrary records at OpenFrames: plain records,
// coalesced records, and garbage. It must never panic, never dispatch a
// frame from a record the deterministic peer session would not produce, and
// must reject structurally malformed coalesced plaintexts wholesale — no frame
// yielded, the sequence number consumed all the same. What it accepts it hands
// out as views: the record untouched, the frames inside the plaintext one
// behind the other, the same whether or not the caller lent a buffer.
func FuzzOpenFrames(f *testing.F) {
	identity := fuzzIdentity(f)
	pub := identity.Public().(ed25519.PublicKey)
	hs, hello, err := NewClientHandshake(pub, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	_, serverHello, err := ServerHandshake(identity, hello, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	cli, err := hs.Finish(serverHello)
	if err != nil {
		f.Fatal(err)
	}

	plain, err := cli.Seal([]byte("single"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	cli2, _, _ := NewClientHandshake(pub, zeroReader{})
	cliSess0, err := cli2.Finish(serverHello)
	if err != nil {
		f.Fatal(err)
	}
	multi, err := cliSess0.SealFrames([][]byte{[]byte("alpha"), {}, []byte("gamma")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	f.Add([]byte{})
	f.Add([]byte{frameCoalesced})
	f.Add(bytes.Repeat([]byte{frameCoalesced}, 4+64+Overhead))
	for _, pt := range malformedCoalesced {
		c, _, _ := NewClientHandshake(pub, zeroReader{})
		sess, err := c.Finish(serverHello)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sealRawCoalesced(f, sess, pt))
	}

	f.Fuzz(func(t *testing.T, record []byte) {
		// Fresh deterministic sessions per execution: sequence numbers
		// advance on use.
		srvSess, shello, err := ServerHandshake(identity, hello, zeroReader{})
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := NewClientHandshake(pub, zeroReader{})
		if err != nil {
			t.Fatal(err)
		}
		cliSess, err := c.Finish(shello)
		if err != nil {
			t.Fatal(err)
		}

		unlent := *srvSess // the same receive state, opened without a buffer
		pristine := bytes.Clone(record)
		// Whether the record is one the peer's keys sealed, whatever is in it.
		authentic := false
		if len(record) >= Overhead && (record[0] == frameRecord || record[0] == frameCoalesced) {
			var nonce [12]byte
			_, aerr := srvSess.recvAEAD.Open(nil, nonce[:], record[1:], record[:1])
			authentic = aerr == nil
		}

		opened, err := srvSess.OpenFrames(make([]byte, 0, 64), record)
		frames := slices.Collect(opened.All())
		if !bytes.Equal(record, pristine) {
			t.Fatal("OpenFrames changed the record")
		}
		if (srvSess.recvSeq == 1) != authentic {
			t.Fatalf("recvSeq = %d for a record with authentic = %v", srvSess.recvSeq, authentic)
		}
		want, werr := collect(&unlent, nil, record)
		if (err == nil) != (werr == nil) || !slices.EqualFunc(frames, want, bytes.Equal) {
			t.Fatalf("OpenFrames into a buffer = %q, %v; into none = %q, %v", frames, err, want, werr)
		}
		if err != nil {
			if len(frames) != 0 {
				t.Fatal("failed OpenFrames yielded frames")
			}
			return
		}
		if len(frames) == 0 {
			t.Fatal("OpenFrames accepted a record carrying no frames")
		}
		checkFrameViews(t, opened)
		// Anything accepted must be exactly what the deterministic client
		// session seals from the recovered frames — i.e. no forgery, and the
		// sub-frame layout is canonical.
		var resealed []byte
		if record[0] == frameRecord {
			resealed, err = cliSess.Seal(frames[0])
		} else {
			resealed, err = cliSess.SealFrames(frames)
		}
		if err != nil || !bytes.Equal(resealed, record) {
			t.Fatalf("server opened a record the client would not produce (err=%v)", err)
		}
	})
}
