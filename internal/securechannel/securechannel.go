// Package securechannel implements the TLS-like secure channel between
// legacy clients and Troxy instances. It substitutes for the TaLoS library
// of the paper's prototype: the handshake and record protection logic run
// inside the enclave boundary, the session keys never leave it, and the
// untrusted replica part only ever sees opaque handshake frames and
// encrypted records.
//
// The protocol is a compact TLS 1.3 analogue:
//
//   - X25519 ephemeral key agreement,
//   - an Ed25519 server signature over the handshake transcript (the
//     server's identity key is provisioned into the enclave after
//     attestation, like the private key in Section V-A),
//   - HKDF-SHA256 key derivation into two directional AES-256-GCM keys,
//   - per-direction 64-bit record sequence numbers used as nonces.
//
// Replay protection falls out of the record layer: each endpoint's receive
// sequence number advances on every successfully opened record, so a
// replayed or reordered ciphertext fails authentication ("each endpoint
// will never accept the same chunk of encrypted data twice", Section III-D).
package securechannel

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
)

// Frame type bytes on the wire.
const (
	frameClientHello byte = iota + 1
	frameServerHello
	frameRecord
	// frameCoalesced is a record whose plaintext carries several
	// length-prefixed sub-frames sealed under one AES-GCM operation — the
	// record-layer analogue of the transport's vectored writes: crypto cost
	// amortizes with the flush size instead of being paid per message.
	frameCoalesced
)

// Overhead is the per-record ciphertext expansion (type byte + GCM tag).
const Overhead = 1 + 16

// HandshakeOverheadClient and HandshakeOverheadServer are the wire sizes of
// the two handshake frames; the simulator uses them for byte accounting.
const (
	HandshakeOverheadClient = 1 + 32 + 16
	HandshakeOverheadServer = 1 + 32 + 16 + ed25519.SignatureSize
)

// Errors.
var (
	// ErrHandshake reports a malformed or unauthentic handshake frame.
	ErrHandshake = errors.New("securechannel: handshake failed")

	// ErrRecord reports a record that failed authentication (tampering,
	// replay, reordering, or truncation).
	ErrRecord = errors.New("securechannel: record rejected")

	// ErrNotEstablished reports record I/O before the handshake completed.
	ErrNotEstablished = errors.New("securechannel: not established")
)

// MaxCoalescedPlaintext bounds the total plaintext of one coalesced record
// (sub-frame headers included). It is deliberately larger than the stream
// adapter's per-chunk limit: a flushed ring of small frames should fit one
// record, which is the whole point of coalescing.
const MaxCoalescedPlaintext = 64 * 1024

// Session is an established secure channel endpoint. The two directions are
// independent: Seal/SealFrames touch only the send state and
// Open/OpenFrames only the receive state, so one writer and one reader may
// run concurrently — but concurrent writers (or concurrent readers) must
// serialize, as the Troxy state machine and legacyclient.Conn both do.
type Session struct {
	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD
	sendSeq  uint64
	recvSeq  uint64

	// One nonce per direction, kept here because what is handed to a
	// cipher.AEAD leaves the stack: a local would be allocated per record.
	sendNonce, recvNonce [12]byte
}

// Established reports whether the handshake completed.
func (s *Session) Established() bool { return s != nil && s.sendAEAD != nil }

// Seal encrypts one plaintext frame into a record of its own.
func (s *Session) Seal(plaintext []byte) ([]byte, error) {
	return s.AppendSeal(make([]byte, 0, Overhead+len(plaintext)), plaintext)
}

// AppendSeal encrypts one plaintext frame into a record appended to dst and
// returns the extended slice, the way append does: a caller with Overhead +
// len(plaintext) bytes of room behind dst's length — a buffer it reuses, the
// body of the envelope the record travels in — gets the record there and
// nothing is allocated. plaintext must not overlap dst's room. dst comes back
// unchanged when the session is not established.
func (s *Session) AppendSeal(dst, plaintext []byte) ([]byte, error) {
	if !s.Established() {
		return dst, ErrNotEstablished
	}
	putSeq(s.sendNonce[:], s.sendSeq)
	s.sendSeq++
	head := len(dst)
	dst = append(dst, frameRecord)
	return s.sendAEAD.Seal(dst, s.sendNonce[:], plaintext, dst[head:]), nil
}

// SealFrames encrypts a whole flush of frames into one coalesced record:
// one nonce, one AES-GCM pass, one tag covering every sub-frame. The frames
// are laid out length-prefixed inside the plaintext so the receiver
// recovers the original message boundaries. An empty flush is a caller bug
// and errors rather than emitting a record that burns a sequence number for
// nothing; a flush whose total exceeds MaxCoalescedPlaintext must be split
// by the caller (the Conn flusher does).
func (s *Session) SealFrames(frames [][]byte) ([]byte, error) {
	if !s.Established() {
		return nil, ErrNotEstablished
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("%w: empty flush", ErrRecord)
	}
	total := 0
	for _, f := range frames {
		total += 4 + len(f)
	}
	if total > MaxCoalescedPlaintext {
		return nil, fmt.Errorf("%w: coalesced flush of %d bytes", ErrRecord, total)
	}
	pt := make([]byte, 0, total)
	for _, f := range frames {
		pt = binary.LittleEndian.AppendUint32(pt, uint32(len(f)))
		pt = append(pt, f...)
	}
	putSeq(s.sendNonce[:], s.sendSeq)
	s.sendSeq++
	out := make([]byte, 1, 1+total+16)
	out[0] = frameCoalesced
	return s.sendAEAD.Seal(out, s.sendNonce[:], pt, out[:1]), nil
}

// Open authenticates and decrypts one record. A record can be opened exactly
// once and only in order; anything else fails.
func (s *Session) Open(record []byte) ([]byte, error) {
	if !s.Established() {
		return nil, ErrNotEstablished
	}
	if len(record) < Overhead || record[0] != frameRecord {
		return nil, ErrRecord
	}
	putSeq(s.recvNonce[:], s.recvSeq)
	pt, err := s.recvAEAD.Open(nil, s.recvNonce[:], record[1:], record[:1])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	s.recvSeq++
	return pt, nil
}

// Frames is the plaintext of one opened record, seen as the frames it carries:
// a plain record is its one frame, a coalesced record yields each sub-frame in
// order. The frames are views of the buffer the record was decrypted into and
// share its lifetime; only OpenFrames makes a Frames, after checking the
// record's structure, so the walk itself has nothing left to refuse. The zero
// Frames, which a rejected record leaves, has no frames.
type Frames struct {
	plaintext []byte
	typ       byte // frameRecord or frameCoalesced
}

// All iterates over the frames in order. Each is a cap-limited view of the
// plaintext, like a decoded field: read-only, and copied by whoever keeps it.
func (f Frames) All() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		switch f.typ {
		case frameRecord:
			yield(f.plaintext[:len(f.plaintext):len(f.plaintext)])
		case frameCoalesced:
			for off := 0; off < len(f.plaintext); {
				var frame []byte
				frame, off = subFrame(f.plaintext, off)
				if !yield(frame) {
					return
				}
			}
		}
	}
}

// Scratch returns the buffer the record was decrypted into, emptied, for the
// caller to lend to its next OpenFrames — once it is done with these frames.
// A buffer that a giant record grew past what a full coalesced flush needs is
// not worth pinning and comes back nil.
func (f Frames) Scratch() []byte {
	if cap(f.plaintext) > 2*MaxCoalescedPlaintext {
		return nil
	}
	return f.plaintext[:0]
}

// subFrame returns the sub-frame whose header starts at off in a coalesced
// plaintext OpenFrames has validated, and the offset of the next header.
func subFrame(pt []byte, off int) (frame []byte, next int) {
	n := int(binary.LittleEndian.Uint32(pt[off:]))
	off += 4
	return pt[off : off+n : off+n], off + n
}

// OpenFrames authenticates and decrypts one record into dst's storage
// (dst[:0] onward; nil, or too small a buffer, allocates) and returns the
// frames it carries. The entire record authenticates in one AEAD operation
// *before* any frame is handed out, so ingress verification cost amortizes
// over the flush exactly as sealing did — no sub-frame from a tampered record
// is ever dispatched. dst must not overlap record.
//
// The record type byte rides in the AEAD's additional data, so a plain
// record cannot be replayed as a coalesced one or vice versa. A structurally
// malformed coalesced record that nevertheless authenticates means the peer
// holds the session keys and is broken or malicious; the record is rejected
// wholesale (and the sequence number has advanced, poisoning the channel,
// which is the correct response).
func (s *Session) OpenFrames(dst, record []byte) (Frames, error) {
	if !s.Established() {
		return Frames{}, ErrNotEstablished
	}
	if len(record) < Overhead {
		return Frames{}, ErrRecord
	}
	typ := record[0]
	if typ != frameRecord && typ != frameCoalesced {
		return Frames{}, ErrRecord
	}
	putSeq(s.recvNonce[:], s.recvSeq)
	pt, err := s.recvAEAD.Open(dst[:0], s.recvNonce[:], record[1:], record[:1])
	if err != nil {
		return Frames{}, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	s.recvSeq++
	if typ == frameRecord {
		return Frames{plaintext: pt, typ: typ}, nil
	}
	if len(pt) == 0 {
		return Frames{}, fmt.Errorf("%w: empty coalesced record", ErrRecord)
	}
	for off := 0; off < len(pt); {
		if len(pt)-off < 4 {
			return Frames{}, fmt.Errorf("%w: truncated sub-frame header", ErrRecord)
		}
		n := int(binary.LittleEndian.Uint32(pt[off:]))
		off += 4
		if n > len(pt)-off {
			return Frames{}, fmt.Errorf("%w: truncated sub-frame", ErrRecord)
		}
		off += n
	}
	return Frames{plaintext: pt, typ: typ}, nil
}

func putSeq(nonce []byte, seq uint64) {
	// The low 8 bytes of the 12-byte nonce carry the sequence number.
	for i := 0; i < 8; i++ {
		nonce[4+i] = byte(seq >> (8 * i))
	}
}

// ephemeralKey draws an X25519 private key from exactly 32 bytes of
// randSource. ecdh's GenerateKey also reads one more byte on a coin flip
// (randutil.MaybeReadByte, so that nobody depends on how many bytes it
// consumes); from a seeded simulator stream shared with the workload that
// shifted every later draw differently in every run.
func ephemeralKey(randSource io.Reader) (*ecdh.PrivateKey, error) {
	var seed [32]byte
	if _, err := io.ReadFull(randSource, seed[:]); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(seed[:])
}

// ClientHandshake is the in-flight client side of a handshake.
type ClientHandshake struct {
	serverPub ed25519.PublicKey
	priv      *ecdh.PrivateKey
	hello     []byte
}

// NewClientHandshake starts a handshake towards a server whose identity
// public key is serverPub. It returns the handshake state and the
// ClientHello frame to transmit. randSource supplies ephemeral key material
// (crypto/rand.Reader in production, a seeded reader in the simulator).
func NewClientHandshake(serverPub ed25519.PublicKey, randSource io.Reader) (*ClientHandshake, []byte, error) {
	priv, err := ephemeralKey(randSource)
	if err != nil {
		return nil, nil, fmt.Errorf("securechannel: ephemeral key: %w", err)
	}
	random := make([]byte, 16)
	if _, err := io.ReadFull(randSource, random); err != nil {
		return nil, nil, fmt.Errorf("securechannel: client random: %w", err)
	}
	hello := make([]byte, 0, HandshakeOverheadClient)
	hello = append(hello, frameClientHello)
	hello = append(hello, priv.PublicKey().Bytes()...)
	hello = append(hello, random...)
	return &ClientHandshake{serverPub: serverPub, priv: priv, hello: hello}, hello, nil
}

// Finish consumes the ServerHello frame and returns the established session.
func (h *ClientHandshake) Finish(serverHello []byte) (*Session, error) {
	if len(serverHello) != HandshakeOverheadServer || serverHello[0] != frameServerHello {
		return nil, fmt.Errorf("%w: bad server hello", ErrHandshake)
	}
	serverECDH := serverHello[1:33]
	sig := serverHello[49:]

	transcript := transcriptHash(h.hello, serverHello[:49])
	if !ed25519.Verify(h.serverPub, transcript, sig) {
		return nil, fmt.Errorf("%w: bad server signature", ErrHandshake)
	}
	peer, err := ecdh.X25519().NewPublicKey(serverECDH)
	if err != nil {
		return nil, fmt.Errorf("%w: bad server key share: %v", ErrHandshake, err)
	}
	shared, err := h.priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("%w: ECDH: %v", ErrHandshake, err)
	}
	c2s, s2c, err := deriveKeys(shared, transcript)
	if err != nil {
		return nil, err
	}
	return newSession(c2s, s2c)
}

// ServerHandshake processes a ClientHello and produces the ServerHello plus
// the established session in one step (the server has no further flights).
// identity is the server's Ed25519 private key, held inside the enclave.
func ServerHandshake(identity ed25519.PrivateKey, clientHello []byte, randSource io.Reader) (*Session, []byte, error) {
	if len(clientHello) != HandshakeOverheadClient || clientHello[0] != frameClientHello {
		return nil, nil, fmt.Errorf("%w: bad client hello", ErrHandshake)
	}
	clientECDH := clientHello[1:33]

	priv, err := ephemeralKey(randSource)
	if err != nil {
		return nil, nil, fmt.Errorf("securechannel: ephemeral key: %w", err)
	}
	random := make([]byte, 16)
	if _, err := io.ReadFull(randSource, random); err != nil {
		return nil, nil, fmt.Errorf("securechannel: server random: %w", err)
	}

	core := make([]byte, 0, 49)
	core = append(core, frameServerHello)
	core = append(core, priv.PublicKey().Bytes()...)
	core = append(core, random...)

	transcript := transcriptHash(clientHello, core)
	sig := ed25519.Sign(identity, transcript)
	serverHello := append(core, sig...)

	peer, err := ecdh.X25519().NewPublicKey(clientECDH)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: bad client key share: %v", ErrHandshake, err)
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: ECDH: %v", ErrHandshake, err)
	}
	c2s, s2c, err := deriveKeys(shared, transcript)
	if err != nil {
		return nil, nil, err
	}
	sess, err := newServerSession(c2s, s2c)
	if err != nil {
		return nil, nil, err
	}
	return sess, serverHello, nil
}

func transcriptHash(clientHello, serverCore []byte) []byte {
	h := sha256.New()
	h.Write([]byte("securechannel-transcript"))
	h.Write(clientHello)
	h.Write(serverCore)
	return h.Sum(nil)
}

func deriveKeys(shared, transcript []byte) (c2s, s2c []byte, err error) {
	prk, err := hkdf.Extract(sha256.New, shared, transcript)
	if err != nil {
		return nil, nil, fmt.Errorf("securechannel: hkdf extract: %w", err)
	}
	c2s, err = hkdf.Expand(sha256.New, prk, "client-to-server", 32)
	if err != nil {
		return nil, nil, fmt.Errorf("securechannel: hkdf expand: %w", err)
	}
	s2c, err = hkdf.Expand(sha256.New, prk, "server-to-client", 32)
	if err != nil {
		return nil, nil, fmt.Errorf("securechannel: hkdf expand: %w", err)
	}
	return c2s, s2c, nil
}

func aead(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("securechannel: cipher: %w", err)
	}
	g, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("securechannel: GCM: %w", err)
	}
	return g, nil
}

func newSession(sendKey, recvKey []byte) (*Session, error) {
	send, err := aead(sendKey)
	if err != nil {
		return nil, err
	}
	recv, err := aead(recvKey)
	if err != nil {
		return nil, err
	}
	return &Session{sendAEAD: send, recvAEAD: recv}, nil
}

func newServerSession(c2s, s2c []byte) (*Session, error) {
	return newSession(s2c, c2s)
}

// IsHandshakeFrame reports whether b looks like a handshake frame (as
// opposed to a record); the Troxy uses it to route incoming channel bytes.
func IsHandshakeFrame(b []byte) bool {
	return len(b) > 0 && (b[0] == frameClientHello || b[0] == frameServerHello)
}
