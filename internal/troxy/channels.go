package troxy

import (
	"crypto/ed25519"
	"fmt"
	"io"

	"github.com/troxy-bft/troxy/internal/httpfront"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Channels terminates the clients' secure channels: the Troxy's, and those of
// the standalone server and the Prophecy middlebox of Fig. 11, the same channel.
type Channels struct {
	identity ed25519.PrivateKey
	http     bool
	sessions map[uint64]*session
	// plain is where a record is decrypted: the operations Receive hands on
	// are views of it until the next Receive.
	plain []byte
}

type session struct {
	node    msg.NodeID // where frames for the connection are sent
	sc      *securechannel.Session
	httpBuf []byte
	nextSeq uint64
}

// NewChannels creates a terminator for a TLS identity, speaking HTTP/1.1 if http.
func NewChannels(identity ed25519.PrivateKey, http bool) *Channels {
	return &Channels{identity: identity, http: http, sessions: make(map[uint64]*session)}
}

// Receive processes bytes from node from on connection connID. A handshake
// frame establishes the channel and its answer is returned. A record
// authenticates whole, and then op gets each operation in it, in order, with
// its client, sequence number and commit tier; opened is the record's
// plaintext size (-1 when no record opened).
func (c *Channels) Receive(connID uint64, from msg.NodeID, payload []byte, rand io.Reader, op func(client, seq uint64, op []byte, fast bool)) (hello []byte, opened int, err error) {
	sess, ok := c.sessions[connID]
	if !ok {
		sess = &session{}
		c.sessions[connID] = sess
	}
	sess.node = from

	if securechannel.IsHandshakeFrame(payload) {
		sc, hello, err := securechannel.ServerHandshake(c.identity, payload, rand)
		if err != nil {
			return nil, -1, fmt.Errorf("%w: %v", ErrBadChannel, err)
		}
		sess.sc, sess.httpBuf = sc, nil
		return hello, -1, nil
	}
	// A plain or a coalesced record (sub-frames sealed under one AES-GCM pass)
	// authenticates whole, before any sub-frame is processed, or not at all.
	frames, err := sess.sc.OpenFrames(c.plain, payload)
	if err != nil {
		return nil, -1, fmt.Errorf("%w: %v", ErrBadChannel, err)
	}
	c.plain = frames.Scratch()
	for plaintext := range frames.All() {
		opened += len(plaintext)
	}
	for plaintext := range frames.All() {
		if c.http {
			sess.httpBuf = append(sess.httpBuf, plaintext...)
			continue
		}
		frame, err := msg.DecodeChannelRequest(plaintext)
		if err != nil {
			return nil, opened, fmt.Errorf("%w: %v", ErrBadChannel, err)
		}
		op(frame.Client, frame.Seq, frame.Op, frame.Flags&msg.FlagFastCommit != 0)
	}
	for c.http {
		req, consumed, err := httpfront.ExtractRequest(sess.httpBuf)
		if err != nil {
			return nil, opened, fmt.Errorf("%w: %v", ErrBadChannel, err)
		}
		if req == nil {
			break
		}
		sess.httpBuf = sess.httpBuf[consumed:]
		sess.nextSeq++
		// HTTP has no client identity: the connection is one (a reconnect is a
		// new client, as for a web server); a header carries the commit tier.
		op(connID, sess.nextSeq, req, httpfront.FastCommit(req))
	}
	return nil, opened, nil
}

// Seal appends to dst the record answering request seq on connID, and returns
// it and the record's destination; a connection gone or not established gets
// none (false). HTTP gets the bare result, others a ChannelReply with status.
func (c *Channels) Seal(dst []byte, connID, seq uint64, status uint8, result []byte) ([]byte, msg.NodeID, bool) {
	sess, ok := c.sessions[connID]
	if !ok || !sess.sc.Established() {
		return dst, 0, false
	}
	plaintext := result
	if !c.http {
		w := wire.GetWriter()
		defer wire.PutWriter(w) // sealing copies the plaintext into the record
		(&msg.ChannelReply{Seq: seq, Status: status, Result: result}).MarshalWire(w)
		plaintext = w.Bytes()
	}
	dst, err := sess.sc.AppendSeal(dst, plaintext)
	return dst, sess.node, err == nil
}
