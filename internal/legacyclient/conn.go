package legacyclient

import (
	"crypto/ed25519"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
)

// maxRecordPlaintext bounds the plaintext carried by a single sub-frame on
// byte-stream transports. It is smaller than
// securechannel.MaxCoalescedPlaintext so a group-committed flush can still
// coalesce several writers' chunks into one record.
const maxRecordPlaintext = 16 * 1024

// Conn adapts a secure-channel session to net.Conn over a byte-stream
// transport, so that completely unmodified legacy clients (e.g. net/http with
// a custom dialer) can talk to a Troxy. Records are length-prefixed on the
// underlying stream.
//
// The write side is a group-commit flusher: writers enqueue plaintext chunks
// under a short mutex and one writer at a time becomes the flusher, sealing
// the entire queue into coalesced records (one AES-GCM pass per record) and
// pushing them to the socket in a single vectored write with no lock held.
// Writers whose chunks rode along in someone else's flush just wait for the
// completion ticket. This is what lets sealing live outside any lock held
// across I/O — the serialization the old writeMu provided now comes from the
// flushing flag, which is only ever held across CPU work.
//
// Read and Write may be used concurrently with each other (as net.Conn
// requires) but each is serialized internally. The Session's two directions
// are independent, so the reader and the flusher never contend.
type Conn struct {
	raw net.Conn

	readMu  sync.Mutex
	readBuf []byte // plaintext not yet surfaced to Read; lies in plain
	plain   []byte // the buffer records are decrypted into, reused once readBuf is drained

	// Write side: group-commit state, all guarded by wmu. wmu is never held
	// across socket I/O — only across enqueueing and sealing.
	wmu      sync.Mutex
	wcond    *sync.Cond
	pending  [][]byte // enqueued chunks, FIFO; alias caller buffers until flushed
	pendSeq  uint64   // ticket of the most recently enqueued Write
	doneSeq  uint64   // ticket of the most recently completed flush
	flushing bool     // a flusher is sealing or writing; at most one at a time
	flushErr error    // sticky: a failed flush poisons the conn

	sess *securechannel.Session
}

func newConn(raw net.Conn, sess *securechannel.Session) *Conn {
	c := &Conn{raw: raw, sess: sess}
	c.wcond = sync.NewCond(&c.wmu)
	return c
}

// ClientConn performs the client side of the handshake over raw and returns
// the secured connection. serverPub pins the service identity.
func ClientConn(raw net.Conn, serverPub ed25519.PublicKey) (*Conn, error) {
	sess, err := handshake(raw, serverPub)
	if err != nil {
		return nil, err
	}
	return newConn(raw, sess), nil
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for len(c.readBuf) == 0 {
		// readMu is the read-serialization lock: holding it across this
		// blocking frame read is its purpose, since record boundaries would
		// interleave otherwise. Only other Read calls contend on it, which is
		// the semantics net.Conn promises, and Close on the raw conn unblocks
		// it.
		record, err := wire.ReadFrame(c.raw)
		if err != nil {
			return 0, err
		}
		// The record may be plain or coalesced; the whole record
		// authenticates before any sub-frame is surfaced. Only this reader
		// touches the session's receive direction, so no session lock is
		// needed.
		frames, err := c.sess.OpenFrames(c.plain, record)
		if err != nil {
			return 0, err
		}
		// A byte stream has no use for the frame boundaries, so the frames are
		// closed up over their headers where they lie: each moves to the end of
		// the one before it, which is never past its own start, so no header
		// still to be read is overwritten.
		c.plain = frames.Scratch()
		stream := c.plain
		for f := range frames.All() {
			stream = append(stream, f...)
		}
		c.readBuf = stream
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// Write implements net.Conn. The caller's buffer is enqueued in chunks and
// sealed by whichever writer drains the queue; Write returns only once its
// chunks are on the socket (or the conn failed), so p is never retained past
// the call.
//
// The flush itself lives inline: the flusher seals the whole queue under wmu
// (pure CPU — the session's send direction advances in queue order), then
// releases wmu for the vectored socket write. The flushing flag keeps the
// next flusher out until this one publishes its completion ticket, so
// records hit the stream in seal order without any lock held across I/O.
func (c *Conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.flushErr != nil {
		return 0, c.flushErr
	}
	for off := 0; off < len(p); off += maxRecordPlaintext {
		end := off + maxRecordPlaintext
		if end > len(p) {
			end = len(p)
		}
		c.pending = append(c.pending, p[off:end])
	}
	c.pendSeq++
	ticket := c.pendSeq
	for c.doneSeq < ticket && c.flushErr == nil {
		if c.flushing {
			c.wcond.Wait()
			continue
		}
		// Become the flusher for everything enqueued so far (our own chunks
		// included — they cannot have been consumed yet, or doneSeq would
		// already cover our ticket).
		c.flushing = true
		batch := c.pending
		c.pending = nil
		upTo := c.pendSeq
		bufs, err := c.sealBatch(batch)

		c.wmu.Unlock()
		if err == nil {
			_, err = bufs.WriteTo(c.raw)
		}
		c.wmu.Lock()

		if err != nil && c.flushErr == nil {
			c.flushErr = err
		}
		c.doneSeq = upTo
		c.flushing = false
		c.wcond.Broadcast()
	}
	if c.flushErr != nil {
		return 0, c.flushErr
	}
	return len(p), nil
}

// sealBatch seals a drained queue into length-prefixed coalesced records,
// greedily packing chunks up to securechannel.MaxCoalescedPlaintext per
// record — one AES-GCM pass per record however many writers contributed.
// Called with wmu held; it performs no I/O and takes no locks.
func (c *Conn) sealBatch(batch [][]byte) (net.Buffers, error) {
	var bufs net.Buffers
	appendRecord := func(frames [][]byte) error {
		rec, err := c.sess.SealFrames(frames)
		if err != nil {
			return err
		}
		hdr := make([]byte, 4)
		binary.LittleEndian.PutUint32(hdr, uint32(len(rec)))
		bufs = append(bufs, hdr, rec)
		return nil
	}
	var group [][]byte
	groupBytes := 0
	for _, chunk := range batch {
		if groupBytes+4+len(chunk) > securechannel.MaxCoalescedPlaintext && len(group) > 0 {
			if err := appendRecord(group); err != nil {
				return nil, err
			}
			group, groupBytes = nil, 0
		}
		group = append(group, chunk)
		groupBytes += 4 + len(chunk)
	}
	if len(group) > 0 {
		if err := appendRecord(group); err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

var _ net.Conn = (*Conn)(nil)
