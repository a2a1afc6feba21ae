package realnet

import (
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
)

// BenchmarkAllocGate: an envelope crosses the router as a value. A local
// Router.Send copies the sender's header into the receiver's mailbox, which
// delivers it from a slot the node owns; a bridge frame is decoded into the
// connection's one envelope and delivered the same way. Neither allocates:
// the ingress chunk a frame lies in is the transport's, read per burst.
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
}
