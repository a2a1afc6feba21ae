package realnet

import (
	"io"
	"net"
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// BenchmarkAllocGate: an envelope crosses the router as a value. A local
// Router.Send copies the sender's header into the receiver's mailbox, which
// delivers it from a slot the node owns; a bridge frame is decoded into the
// connection's one envelope and delivered the same way. Neither allocates:
// the ingress chunk a frame lies in is the transport's, read per burst. And a
// send ring's flush hands a drained batch to the socket as one vectored write
// over the iovec and the net.Buffers header its drainer keeps: nothing either.
func BenchmarkAllocGate(b *testing.B) {
	r := NewRouter()
	defer r.Close()
	recv := &gatedNode{seen: make(chan uint64)}
	r.Attach(1, recv)

	e := msg.SealChannelData(2, 1, 7, []byte("a record"))
	testutil.AllocGate(b, "LocalSendDeliver", 0, func() {
		r.Send(e)
		if id := <-recv.seen; id != 7 {
			b.Fatalf("delivered connection %d, want 7", id)
		}
	})

	br := NewBridge(r, nil)
	defer br.Close()
	frame := msg.EncodeEnvelope(e)
	var into msg.Envelope
	testutil.AllocGate(b, "BridgeFrameDecodeDeliver", 0, func() {
		br.inject(&into, frame)
		if id := <-recv.seen; id != 7 {
			b.Fatalf("delivered connection %d, want 7", id)
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	var iov [][]byte
	var bufs net.Buffers
	batch := make([]*wire.Writer, 3)
	for i := range batch {
		batch[i] = wire.NewWriter(len(frame))
		batch[i].Raw(frame)
	}
	testutil.AllocGate(b, "FlushBatch", 0, func() {
		if iov, err = flushBatch(conn, &bufs, iov, batch); err != nil {
			b.Fatal(err)
		}
	})
}
