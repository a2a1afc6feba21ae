package legacyclient

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	mrand "math/rand"
	"net"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// TestRequestBackoffGrows drives Request against dead addresses and checks
// the retry delays: jittered (each in [backoff/2, backoff]), exponentially
// growing, and capped at dialBackoffMax.
func TestRequestBackoffGrows(t *testing.T) {
	var sleeps []time.Duration
	c := &TCPClient{
		addrs:   []string{"127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:1"},
		timeout: 50 * time.Millisecond,
		rng:     mrand.New(mrand.NewSource(1)),
		sleepFn: func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	if _, err := c.Request([]byte("op"), false); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Request against dead addresses: err = %v, want ErrExhausted", err)
	}
	// attempts = 2*len(addrs); a sleep precedes every attempt but the first.
	if want := 2*len(c.addrs) - 1; len(sleeps) != want {
		t.Fatalf("recorded %d sleeps, want %d", len(sleeps), want)
	}
	level := dialBackoffMin
	for i, d := range sleeps {
		if d < level/2 || d > level {
			t.Errorf("sleep %d = %v, want within [%v, %v]", i, d, level/2, level)
		}
		if i > 0 && d < sleeps[i-1]/2 {
			t.Errorf("sleep %d = %v shrank below half of previous %v", i, d, sleeps[i-1])
		}
		if level < dialBackoffMax {
			level *= 2
			if level > dialBackoffMax {
				level = dialBackoffMax
			}
		}
	}

	// A second failing Request keeps growing from where it left off until
	// the cap.
	before := c.backoff
	if _, err := c.Request([]byte("op"), false); !errors.Is(err, ErrExhausted) {
		t.Fatalf("second Request: err = %v, want ErrExhausted", err)
	}
	if c.backoff < before || c.backoff > dialBackoffMax {
		t.Errorf("backoff after second failing Request = %v, want in [%v, %v]",
			c.backoff, before, dialBackoffMax)
	}
	for _, d := range sleeps {
		if d > dialBackoffMax {
			t.Errorf("sleep %v exceeds cap %v", d, dialBackoffMax)
		}
	}
}

// failingConn refuses every write with errWrite and every read with errRead,
// and counts the reads: a client that reads after a failed write returns the
// wrong error at once instead of waiting out a deadline.
type failingConn struct {
	net.Conn
	reads int
}

var (
	errWrite = errors.New("write refused")
	errRead  = errors.New("read after a failed write")
)

func (c *failingConn) Write([]byte) (int, error)   { return 0, errWrite }
func (c *failingConn) Read([]byte) (int, error)    { c.reads++; return 0, errRead }
func (c *failingConn) SetDeadline(time.Time) error { return nil }

// TestRequestWriteErrorIsReturned: a request the client failed to send is
// not waited on; the attempt ends with the write's error and never reads, so
// Request fails over to the next replica at once.
func TestRequestWriteErrorIsReturned(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	h, hello, err := securechannel.NewClientHandshake(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, serverHello, err := securechannel.ServerHandshake(priv, hello, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := h.Finish(serverHello)
	if err != nil {
		t.Fatal(err)
	}
	conn := &failingConn{}
	c := &TCPClient{timeout: time.Minute}
	c.attach(conn, sess)
	if _, err := c.tryOnce([]byte("PUT k v")); !errors.Is(err, errWrite) {
		t.Errorf("tryOnce = %v, want the write's error", err)
	}
	if conn.reads != 0 {
		t.Errorf("the client read %d times after its write failed", conn.reads)
	}
}

// echoService is the far end of a client's connection in a test: it finishes
// the handshake, then answers every request with its operation as the
// result, from buffers it reuses, so a request costs it no allocation.
func echoService(conn net.Conn, priv ed25519.PrivateKey) error {
	hello, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	sess, serverHello, err := securechannel.ServerHandshake(priv, hello, rand.Reader)
	if err != nil {
		return err
	}
	if err := wire.WriteFrame(conn, serverHello); err != nil {
		return err
	}
	rd := wire.NewChunkReader(conn)
	var plain, out []byte
	var reply wire.Writer
	for {
		record, err := rd.ReadFrame()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
			return nil
		}
		if err != nil {
			return err
		}
		frames, err := sess.OpenFrames(plain, record)
		if err != nil {
			return err
		}
		plain = frames.Scratch()
		for frame := range frames.All() {
			req, err := msg.DecodeChannelRequest(frame)
			if err != nil {
				return err
			}
			reply.Reset()
			(&msg.ChannelReply{Seq: req.Seq, Status: msg.StatusOK, Result: req.Op}).MarshalWire(&reply)
			if out, err = sess.AppendSeal(append(out[:0], 0, 0, 0, 0), reply.Bytes()); err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
			if _, err := conn.Write(out); err != nil {
				return err
			}
		}
	}
}

// pipeConn is one end of a net.Pipe whose deadlines are no-ops: a pipe's
// deadline starts a timer where a TCP connection's does not allocate.
type pipeConn struct{ net.Conn }

func (pipeConn) SetDeadline(time.Time) error { return nil }

// TestRequestAllocatesOnlyItsResult: a request is encoded, sealed and framed
// into buffers the client reuses, read through the connection's chunk reader
// and decrypted into another, so what it allocates is the result it hands
// back.
func TestRequestAllocatesOnlyItsResult(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	client, service := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- echoService(service, priv) }()
	sess, err := handshake(client, pub)
	if err != nil {
		t.Fatal(err)
	}
	c := &TCPClient{addrs: []string{"pipe"}, timeout: time.Minute}
	c.attach(pipeConn{client}, sess)
	op := append([]byte("PUT key-0001 "), bytes.Repeat([]byte{'v'}, 128)...)
	var result []byte
	allocs := testing.AllocsPerRun(100, func() {
		if result, err = c.Request(op, false); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(result, op) {
		t.Errorf("result %q, want the echoed operation", result)
	}
	t.Logf("%.2f allocations a request", allocs)
	if allocs > 1 {
		t.Errorf("a request allocates %.1f times, want 1 (its result)", allocs)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Errorf("echo service: %v", err)
	}
}
