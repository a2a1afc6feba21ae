package simnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
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

// lentReceiver checks every delivery against what its sender lent to Send:
// the record and MAC of its connection ID.
type lentReceiver struct {
	got int
	bad []string
}

func (r *lentReceiver) OnStart(node.Env) {}
func (r *lentReceiver) OnEnvelope(_ node.Env, e *msg.Envelope) {
	r.got++
	cd, err := e.OpenChannelData()
	if err != nil {
		r.bad = append(r.bad, fmt.Sprintf("undecodable body %x", e.Body))
		return
	}
	i := byte(cd.ConnID)
	if want := fmt.Sprintf("record %02d", i); string(cd.Payload) != want || !bytes.Equal(e.MAC, []byte{i, i, i}) {
		r.bad = append(r.bad, fmt.Sprintf("connection %d: %q with MAC %x", cd.ConnID, cd.Payload, e.MAC))
	}
}
func (r *lentReceiver) OnTimer(node.Env, node.TimerKey) {}

// TestSendCopiesWhatItIsLent: Send copies body and MAC as well as the header,
// so a sender that overwrites them once Send returns changes nothing that is
// delivered, whether it is queued behind the link, delayed or duplicated.
func TestSendCopiesWhatItIsLent(t *testing.T) {
	const n = 20
	for _, tc := range []struct {
		name  string
		fault *faultplane.LinkFault
		want  int
	}{
		{name: "queued", want: n},
		{name: "delayed", fault: &faultplane.LinkFault{From: faultplane.Wildcard, To: 2, Jitter: 20 * time.Millisecond}, want: n},
		{name: "duplicated", fault: &faultplane.LinkFault{From: faultplane.Wildcard, To: 2, DupP: 1}, want: 2 * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := New(1, nil)
			if tc.fault != nil {
				net.SetFault(faultplane.NewInjector(1, faultplane.Plan{Links: []faultplane.LinkFault{*tc.fault}}))
			}
			recv := &lentReceiver{}
			net.Attach(2, recv)
			net.Attach(1, &lendingSender{to: 2, n: n})
			net.Run(time.Second)
			if recv.got != tc.want {
				t.Errorf("%d of %d deliveries", recv.got, tc.want)
			}
			if len(recv.bad) > 0 {
				t.Errorf("%d deliveries not as sent, the first %s", len(recv.bad), recv.bad[0])
			}
		})
	}
}
