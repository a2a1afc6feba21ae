package legacyclient

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// serverConn runs the service's side of the handshake over raw, the way a
// Troxy answers behind its replica's gateway, and returns the secured
// connection.
func serverConn(raw net.Conn, identity ed25519.PrivateKey) (*Conn, error) {
	clientHello, err := wire.ReadFrame(raw)
	if err != nil {
		return nil, err
	}
	sess, serverHello, err := securechannel.ServerHandshake(identity, clientHello, rand.Reader)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(raw, serverHello); err != nil {
		return nil, err
	}
	return newConn(raw, sess), nil
}

// dribbleConn delivers reads a few bytes at a time, so a record's length
// prefix and body arrive split across many TCP reads.
type dribbleConn struct {
	net.Conn
	chunk int
}

func (d *dribbleConn) Read(p []byte) (int, error) {
	if len(p) > d.chunk {
		p = p[:d.chunk]
	}
	return d.Conn.Read(p)
}

func connPair(t *testing.T, wrapServer func(net.Conn) net.Conn) (client, server *Conn) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clientRaw, serverRaw := net.Pipe()
	t.Cleanup(func() {
		clientRaw.Close()
		serverRaw.Close()
	})
	raw := net.Conn(serverRaw)
	if wrapServer != nil {
		raw = wrapServer(raw)
	}
	type res struct {
		conn *Conn
		err  error
	}
	serverCh := make(chan res, 1)
	go func() {
		c, err := serverConn(raw, priv)
		serverCh <- res{c, err}
	}()
	cli, err := ClientConn(clientRaw, pub)
	if err != nil {
		t.Fatalf("ClientConn: %v", err)
	}
	sr := <-serverCh
	if sr.err != nil {
		t.Fatalf("serverConn: %v", sr.err)
	}
	return cli, sr.conn
}

func TestConnCoalescedRecordSplitAcrossReads(t *testing.T) {
	// A coalesced record split across many small TCP reads must reassemble:
	// the frame reader buffers until the whole record arrived, then the
	// record authenticates as a unit.
	testutil.CheckGoroutines(t)
	client, server := connPair(t, func(raw net.Conn) net.Conn {
		return &dribbleConn{Conn: raw, chunk: 3}
	})

	payload := bytes.Repeat([]byte("split me "), 128)
	go func() {
		if _, err := client.Write(payload); err != nil {
			t.Errorf("client write: %v", err)
		}
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted across dribbled reads")
	}
}

func TestConnConcurrentWritersGroupCommit(t *testing.T) {
	// Concurrent writers ride each other's flushes; every byte must arrive
	// exactly once and each writer's payload must stay contiguous enough to
	// be recovered (we use fixed-size cells so reassembly is order-free).
	testutil.CheckGoroutines(t)
	client, server := connPair(t, nil)

	const writers, cell = 8, 512
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{id}, cell)
			if _, err := client.Write(buf); err != nil {
				t.Errorf("writer %d: %v", id, err)
			}
		}(byte(i + 1))
	}

	got := make([]byte, writers*cell)
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	wg.Wait()
	counts := make(map[byte]int)
	for _, b := range got {
		counts[b]++
	}
	for i := 1; i <= writers; i++ {
		if counts[byte(i)] != cell {
			t.Errorf("writer %d delivered %d bytes, want %d", i, counts[byte(i)], cell)
		}
	}
}

func TestConnWriteAfterPeerClose(t *testing.T) {
	// A failed flush poisons the conn: the sticky error surfaces on every
	// later Write instead of silently desynchronizing record sequence state.
	client, server := connPair(t, nil)
	server.Close()
	client.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := client.Write([]byte("doomed")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
	if _, err := client.Write([]byte("still doomed")); err == nil {
		t.Fatal("sticky flush error not surfaced")
	}
}

func TestConnAdapter(t *testing.T) {
	testutil.CheckGoroutines(t)
	client, server := connPair(t, nil)

	// Big payload exercises record chunking.
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	go func() {
		if _, err := client.Write(payload); err != nil {
			t.Errorf("client write: %v", err)
		}
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted through Conn")
	}

	// And the reverse direction.
	go func() {
		if _, err := server.Write([]byte("reply")); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(buf) != "reply" {
		t.Errorf("reply = %q", buf)
	}
}

// TestConnCoalescedRecordAcrossReads: one record carrying several frames is
// surfaced as one byte stream however the reader cuts it, and the buffer it
// was decrypted into takes the next record only once it has been read dry.
func TestConnCoalescedRecordAcrossReads(t *testing.T) {
	testutil.CheckGoroutines(t)
	client, server := connPair(t, nil)

	first := make([]byte, 2*maxRecordPlaintext+5000) // three frames in one record
	for i := range first {
		first[i] = byte(i * 7)
	}
	second := bytes.Repeat([]byte("next record "), 100)
	go func() {
		for _, p := range [][]byte{first, second} {
			if _, err := client.Write(p); err != nil {
				t.Errorf("client write: %v", err)
			}
		}
	}()

	var got []byte
	buf := make([]byte, 4099) // cuts across the frame boundaries
	for len(got) < len(first)+len(second) {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatalf("server read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, append(bytes.Clone(first), second...)) {
		t.Error("stream corrupted across reads of a coalesced record")
	}
}

// enteredConn reports, once, that a Write has been entered: from then on the
// writer is in the socket write, and over a net.Pipe whose peer does not
// read it stays there.
type enteredConn struct {
	net.Conn
	once    sync.Once
	entered chan struct{}
}

func (e *enteredConn) Write(p []byte) (int, error) {
	e.once.Do(func() { close(e.entered) })
	return e.Conn.Write(p)
}

// TestConnFlushWritesWithoutLock: the flusher releases wmu before the socket
// write, so while that write is stuck on a peer that does not read, another
// writer can still take wmu to queue behind it, and the sealed records are
// handed to the socket by the flusher, never by the seal under wmu.
func TestConnFlushWritesWithoutLock(t *testing.T) {
	testutil.CheckGoroutines(t)
	client, server := connPair(t, nil)
	raw := &enteredConn{Conn: client.raw, entered: make(chan struct{})}
	client.raw = raw

	payload := []byte("blocked until the peer reads")
	wrote := make(chan error, 1)
	go func() {
		_, err := client.Write(payload)
		wrote <- err
	}()
	<-raw.entered
	if !client.wmu.TryLock() {
		t.Error("wmu is held while the flusher is blocked in the socket write")
	} else {
		client.wmu.Unlock()
	}

	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("server read %q, want %q", got, payload)
	}
}
