package legacyclient

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
)

// TCPClient is a blocking legacy client for real deployments: it dials a
// replica's client gateway over TCP, establishes the secure channel to the
// Troxy behind it, and issues generic request/reply operations. On timeouts
// or channel errors it fails over to the next address and retransmits with
// the same sequence number, so the cluster's deduplication applies.
type TCPClient struct {
	addrs     []string
	serverPub ed25519.PublicKey
	identity  uint64
	timeout   time.Duration

	next int
	conn net.Conn
	sess *securechannel.Session
	rd   *wire.ChunkReader // conn's frames
	seq  uint64

	// req holds the request frame, encoded once per Request and sealed again
	// for every attempt; out is the frame an attempt writes, its length
	// header and the record sealed behind it; plain is where a reply record
	// is decrypted. All three are reused from request to request: Request
	// copies the one result it returns out of plain.
	req        wire.Writer
	out, plain []byte

	// backoff is the current retry delay: it grows exponentially (with
	// jitter, capped at dialBackoffMax) across failed attempts so a
	// fully-partitioned client doesn't hot-loop, and resets on the next
	// successful request.
	backoff time.Duration
	rng     *mrand.Rand
	sleepFn func(time.Duration) // test seam; nil means time.Sleep
}

// Reconnect backoff bounds. The first retry waits around dialBackoffMin;
// each subsequent failure doubles the delay up to dialBackoffMax.
const (
	dialBackoffMin = 20 * time.Millisecond
	dialBackoffMax = 2 * time.Second
)

// ErrExhausted reports that all replica addresses failed.
var ErrExhausted = errors.New("legacyclient: all replicas failed")

// Dial creates a client that will connect to the first reachable address.
// identity must be unique among clients of the deployment.
func Dial(addrs []string, serverPub ed25519.PublicKey, identity uint64, timeout time.Duration) (*TCPClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("legacyclient: no addresses")
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c := &TCPClient{
		addrs:     addrs,
		serverPub: serverPub,
		identity:  identity,
		timeout:   timeout,
	}
	if err := c.reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *TCPClient) reconnect() error {
	if c.conn != nil {
		c.drop()
	}
	var lastErr error
	for range c.addrs {
		addr := c.addrs[c.next%len(c.addrs)]
		c.next++
		conn, err := net.DialTimeout("tcp", addr, c.timeout)
		if err != nil {
			lastErr = err
			continue
		}
		if err := conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		sess, err := handshake(conn, c.serverPub)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		if err := conn.SetDeadline(time.Time{}); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		c.attach(conn, sess)
		return nil
	}
	return fmt.Errorf("%w: %v", ErrExhausted, lastErr)
}

// attach makes conn, and the session established over it, the client's
// connection, read through a chunk reader of its own.
func (c *TCPClient) attach(conn net.Conn, sess *securechannel.Session) {
	c.conn, c.sess, c.rd = conn, sess, wire.NewChunkReader(conn)
}

// drop closes the connection and forgets it with its session and reader.
func (c *TCPClient) drop() {
	c.conn.Close()
	c.conn, c.sess, c.rd = nil, nil, nil
}

// handshake runs the client side of the secure-channel handshake over raw:
// the hello out, the server's hello back, the session it finishes.
// serverPub pins the service identity.
func handshake(raw net.Conn, serverPub ed25519.PublicKey) (*securechannel.Session, error) {
	hs, hello, err := securechannel.NewClientHandshake(serverPub, rand.Reader)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(raw, hello); err != nil {
		return nil, fmt.Errorf("legacyclient: send client hello: %w", err)
	}
	serverHello, err := wire.ReadFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("legacyclient: read server hello: %w", err)
	}
	return hs.Finish(serverHello)
}

// Request executes one operation against the replicated service, retrying
// across replicas until a reply arrives or every address failed twice.
func (c *TCPClient) Request(op []byte, readOnly bool) ([]byte, error) {
	c.seq++
	flags := uint8(0)
	if readOnly {
		flags = msg.FlagReadOnly
	}
	c.req.Reset()
	(&msg.ChannelRequest{Client: c.identity, Seq: c.seq, Flags: flags, Op: op}).MarshalWire(&c.req)

	attempts := 2 * len(c.addrs)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.backoffSleep()
		}
		if c.sess == nil {
			if err := c.reconnect(); err != nil {
				lastErr = err
				continue
			}
		}
		result, err := c.tryOnce(c.req.Bytes())
		if err == nil {
			c.backoff = 0
			return result, nil
		}
		lastErr = err
		if err := c.reconnect(); err != nil {
			lastErr = err
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrExhausted, lastErr)
}

// backoffSleep pauses before the next attempt, doubling the delay (with
// jitter in [backoff/2, backoff]) up to dialBackoffMax. The delay carries
// over across Request calls until a request succeeds.
func (c *TCPClient) backoffSleep() {
	if c.backoff == 0 {
		c.backoff = dialBackoffMin
	} else if c.backoff < dialBackoffMax {
		c.backoff *= 2
		if c.backoff > dialBackoffMax {
			c.backoff = dialBackoffMax
		}
	}
	if c.rng == nil {
		c.rng = mrand.New(mrand.NewSource(time.Now().UnixNano()))
	}
	d := c.backoff/2 + time.Duration(c.rng.Int63n(int64(c.backoff)/2+1))
	if c.sleepFn != nil {
		c.sleepFn(d)
	} else {
		time.Sleep(d)
	}
}

// tryOnce sends plaintext over the current connection and waits for the
// reply that answers it. The frame goes out in one write: its length header,
// then the record sealed behind it in the client's out buffer.
func (c *TCPClient) tryOnce(plaintext []byte) ([]byte, error) {
	frame, err := c.sess.AppendSeal(append(c.out[:0], 0, 0, 0, 0), plaintext)
	if err != nil {
		return nil, err
	}
	c.out = frame
	if len(frame)-4 > wire.MaxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", wire.ErrTooLarge, len(frame)-4)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	defer func() {
		// If the deadline cannot be cleared the connection is unusable for
		// the idle period before the next request; drop it so the next
		// Request reconnects instead of timing out mid-operation.
		if err := c.conn.SetDeadline(time.Time{}); err != nil {
			c.drop()
		}
	}()
	if _, err := c.conn.Write(frame); err != nil {
		return nil, fmt.Errorf("write frame: %w", err)
	}
	for {
		record, err := c.rd.ReadFrame()
		if err != nil {
			return nil, err
		}
		// Plain or coalesced record: a reply batched with stale replies from
		// earlier attempts still arrives in one authenticated unit. The
		// plaintext lands in the client's buffer, so the result it returns
		// is copied out: the next request decrypts over it.
		replies, err := c.sess.OpenFrames(c.plain, record)
		if err != nil {
			// Tampered or out-of-order channel data: treat the channel as
			// corrupted and fail over (Section III-D).
			return nil, err
		}
		c.plain = replies.Scratch()
		for replyPlain := range replies.All() {
			reply, err := msg.DecodeChannelReply(replyPlain)
			if err != nil {
				return nil, err
			}
			if reply.Seq != c.seq {
				continue // stale reply from a previous attempt
			}
			result := bytes.Clone(reply.Result)
			if reply.Status != msg.StatusOK {
				return result, fmt.Errorf("legacyclient: service error (%d)", reply.Status)
			}
			return result, nil
		}
	}
}

// Close tears the connection down.
func (c *TCPClient) Close() error {
	if c.conn != nil {
		return c.conn.Close()
	}
	return nil
}
