package legacyclient

import (
	"crypto/ed25519"
	"crypto/rand"
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
	seq  uint64

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
		c.conn.Close()
		c.conn = nil
		c.sess = nil
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
		sess, err := c.handshake(conn)
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
		c.conn = conn
		c.sess = sess
		return nil
	}
	return fmt.Errorf("%w: %v", ErrExhausted, lastErr)
}

func (c *TCPClient) handshake(conn net.Conn) (*securechannel.Session, error) {
	hs, hello, err := securechannel.NewClientHandshake(c.serverPub, rand.Reader)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, hello); err != nil {
		return nil, err
	}
	serverHello, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, err
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
	plaintext := msg.EncodeChannelRequest(&msg.ChannelRequest{
		Client: c.identity,
		Seq:    c.seq,
		Flags:  flags,
		Op:     op,
	})

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
		result, err := c.tryOnce(plaintext)
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

func (c *TCPClient) tryOnce(plaintext []byte) ([]byte, error) {
	record, err := c.sess.Seal(plaintext)
	if err != nil {
		return nil, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	defer func() {
		// If the deadline cannot be cleared the connection is unusable for
		// the idle period before the next request; drop it so the next
		// Request reconnects instead of timing out mid-operation.
		if err := c.conn.SetDeadline(time.Time{}); err != nil {
			c.conn.Close()
			c.conn = nil
			c.sess = nil
		}
	}()
	if err := wire.WriteFrame(c.conn, record); err != nil {
		return nil, err
	}
	for {
		frame, err := wire.ReadFrame(c.conn)
		if err != nil {
			return nil, err
		}
		// Plain or coalesced record: a reply batched with stale replies from
		// earlier attempts still arrives in one authenticated unit. The
		// plaintext gets memory of its own: the result goes to the caller.
		replies, err := c.sess.OpenFrames(nil, frame)
		if err != nil {
			// Tampered or out-of-order channel data: treat the channel as
			// corrupted and fail over (Section III-D).
			return nil, err
		}
		for replyPlain := range replies.All() {
			reply, err := msg.DecodeChannelReply(replyPlain)
			if err != nil {
				return nil, err
			}
			if reply.Seq != c.seq {
				continue // stale reply from a previous attempt
			}
			if reply.Status != msg.StatusOK {
				return reply.Result, fmt.Errorf("legacyclient: service error (%d)", reply.Status)
			}
			return reply.Result, nil
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
