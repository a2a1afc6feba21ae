package realnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
)

// lendingSender sends n ChannelData envelopes from one body and one MAC
// buffer it reuses, and overwrites both with junk the moment each Send
// returns: only a runtime that copied them delivers what was sent.
type lendingSender struct {
	to msg.NodeID
	n  int
}

func (s *lendingSender) OnStart(env node.Env) {
	var body, mac []byte
	for i := 0; i < s.n; i++ {
		payload := fmt.Sprintf("record %02d", i)
		body = append(msg.AppendChannelDataHead(body[:0], uint64(i), len(payload)), payload...)
		mac = append(mac[:0], byte(i), byte(i), byte(i))
		env.Send(&msg.Envelope{From: env.Self(), To: s.to, Kind: msg.KindChannelData, Body: body, MAC: mac})
		for j := range body {
			body[j] = 0x5A
		}
		for j := range mac {
			mac[j] = 0x5A
		}
	}
}
func (s *lendingSender) OnEnvelope(node.Env, *msg.Envelope) {}
func (s *lendingSender) OnTimer(node.Env, node.TimerKey)    {}

// checkLentDeliveries fails unless every envelope c collected carries the
// bytes its sender lent to Send: the record and MAC of its connection ID.
func checkLentDeliveries(t *testing.T, c *collector) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.envs {
		cd, err := e.OpenChannelData()
		if err != nil {
			t.Errorf("a delivered body does not decode: %x", e.Body)
			continue
		}
		i := byte(cd.ConnID)
		if want := fmt.Sprintf("record %02d", i); string(cd.Payload) != want || !bytes.Equal(e.MAC, []byte{i, i, i}) {
			t.Errorf("connection %d delivered %q with MAC %x, sent %q with MAC %x", cd.ConnID, cd.Payload, e.MAC, want, []byte{i, i, i})
		}
	}
}

// TestSendCopiesWhatItIsLent: Send copies body and MAC as well as the header,
// so a sender that overwrites them once Send returns changes nothing that is
// delivered — locally, delayed, duplicated, or across a bridge.
func TestSendCopiesWhatItIsLent(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n = 20
	for _, tc := range []struct {
		name  string
		fault *faultplane.LinkFault
		want  int
	}{
		{name: "local", want: n},
		{name: "delayed", fault: &faultplane.LinkFault{From: faultplane.Wildcard, To: 2, Jitter: 20 * time.Millisecond}, want: n},
		{name: "duplicated", fault: &faultplane.LinkFault{From: faultplane.Wildcard, To: 2, DupP: 1}, want: 2 * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRouter()
			defer r.Close()
			if tc.fault != nil {
				r.SetFault(faultplane.NewInjector(1, faultplane.Plan{Links: []faultplane.LinkFault{*tc.fault}}))
			}
			recv := newCollector(tc.want)
			r.Attach(2, recv)
			r.Attach(1, &lendingSender{to: 2, n: n})
			waitCh(t, recv.done, fmt.Sprintf("%d deliveries", tc.want))
			checkLentDeliveries(t, recv)
		})
	}
	t.Run("bridged", func(t *testing.T) {
		ra, rb := NewRouter(), NewRouter()
		defer ra.Close()
		defer rb.Close()
		bb := NewBridge(rb, nil)
		if err := bb.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer bb.Close()
		ba := NewBridge(ra, map[msg.NodeID]string{2: bb.Addr().String()})
		defer ba.Close()
		recv := newCollector(n)
		rb.Attach(2, recv)
		ra.Attach(1, &lendingSender{to: 2, n: n})
		waitCh(t, recv.done, "bridged deliveries")
		checkLentDeliveries(t, recv)
	})
}
