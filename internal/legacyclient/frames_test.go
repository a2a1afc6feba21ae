package legacyclient

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
	"github.com/troxy-bft/troxy/internal/workload"
)

// fakeService is the other end of one client's channel, driven by hand: it
// plays the Troxy's side of the handshake and seals whatever records the test
// wants the client machine to receive. As the machine's node.Env it collects
// what the machine sends, by value as Send copies it.
type fakeService struct {
	t    *testing.T
	sess *securechannel.Session
	sent []msg.Envelope
	rng  *rand.Rand
}

func (f *fakeService) Self() msg.NodeID                          { return 100 }
func (f *fakeService) Now() time.Duration                        { return 0 }
func (f *fakeService) Send(e *msg.Envelope)                      { f.sent = append(f.sent, *faultplane.CloneEnvelope(e)) }
func (f *fakeService) SetTimer(time.Duration, node.TimerKey)     {}
func (f *fakeService) CancelTimer(node.TimerKey)                 {}
func (f *fakeService) Rand() *rand.Rand                          { return f.rng }
func (f *fakeService) Charge(node.Profile, node.ChargeKind, int) {}
func (f *fakeService) Logf(string, ...any)                       {}

// takeRequest returns the plaintext of the one record the machine has sent
// since the last call.
func (f *fakeService) takeRequest() []byte {
	f.t.Helper()
	if len(f.sent) != 1 {
		f.t.Fatalf("the machine sent %d envelopes, want 1", len(f.sent))
	}
	cd, err := f.sent[0].OpenChannelData()
	f.sent = nil
	if err != nil {
		f.t.Fatal(err)
	}
	if f.sess == nil {
		return cd.Payload // the client hello
	}
	pt, err := f.sess.Open(cd.Payload)
	if err != nil {
		f.t.Fatal(err)
	}
	return pt
}

// deliver hands the machine one channel frame from the replica.
func (f *fakeService) deliver(m *Machine, frame []byte, err error) {
	f.t.Helper()
	if err != nil {
		f.t.Fatal(err)
	}
	m.OnEnvelope(f, msg.SealChannelData(0, 100, 1000, frame))
}

// connectMachine starts a one-client machine against a fakeService and
// completes the handshake; the machine's first request is waiting in
// takeRequest.
func connectMachine(t *testing.T, cfg Config) (*Machine, *fakeService) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeService{t: t, rng: rand.New(rand.NewSource(1))}
	cfg.Machine, cfg.Clients, cfg.FirstClientID = 100, 1, 1000
	cfg.Replicas, cfg.ServerPub = []msg.NodeID{0}, pub
	m := New(cfg)
	m.OnTimer(f, node.TimerKey{Kind: timerConnect, ID: 0})
	sess, hello, err := securechannel.ServerHandshake(priv, f.takeRequest(), f.rng)
	if err != nil {
		t.Fatal(err)
	}
	f.deliver(m, hello, nil)
	f.sess = sess
	return m, f
}

func channelReply(seq uint64, status uint8, result string) []byte {
	w := wire.NewWriter(64)
	(&msg.ChannelReply{Seq: seq, Status: status, Result: []byte(result)}).MarshalWire(w)
	return w.Bytes()
}

// TestMachineConsumesCoalescedReplies: the machine decrypts every record into
// one buffer. A record that carries several replies — stale ones around the
// one that completes the operation — is consumed frame by frame, the next
// operation leaves while the buffer still holds the record, and the next
// record takes the buffer over without disturbing what was observed.
func TestMachineConsumesCoalescedReplies(t *testing.T) {
	var observed []string
	var views [][]byte
	m, f := connectMachine(t, Config{
		Gen: &scriptGen{ops: []workload.Op{{Op: []byte("PUT a 1")}, {Op: []byte("PUT a 2")}, {Op: []byte("PUT a 3")}}},
		Observe: func(_, seq uint64, op []byte, _ bool, _, _ time.Duration, result []byte) {
			observed = append(observed, string(op)+" -> "+string(result))
			views = append(views, result)
		},
	})
	expectRequest := func(seq uint64, op string) {
		t.Helper()
		req, err := msg.DecodeChannelRequest(f.takeRequest())
		if err != nil || req.Seq != seq || string(req.Op) != op {
			t.Fatalf("request = %+v, %v; want seq %d %q", req, err, seq, op)
		}
	}
	expectRequest(1, "PUT a 1")

	rec, err := f.sess.SealFrames([][]byte{
		channelReply(0, msg.StatusOK, "stale"),
		channelReply(1, msg.StatusOK, "first result"),
		channelReply(1, msg.StatusOK, "duplicate of the first"),
	})
	f.deliver(m, rec, err)
	expectRequest(2, "PUT a 2")

	rec, err = f.sess.Seal(channelReply(2, msg.StatusOK, "second, and long enough to lie where the first was"))
	f.deliver(m, rec, err)
	expectRequest(3, "PUT a 3")

	rec, err = f.sess.SealFrames([][]byte{channelReply(3, msg.StatusOK, "third and last")})
	f.deliver(m, rec, err)

	want := []string{"PUT a 1 -> first result", "PUT a 2 -> second, and long enough to lie where the first was", "PUT a 3 -> third and last"}
	if len(observed) != len(want) {
		t.Fatalf("observed %q, want %q", observed, want)
	}
	for i := range want {
		if observed[i] != want[i] {
			t.Errorf("operation %d observed as %q, want %q", i, observed[i], want[i])
		}
	}
	// What Observe is handed is a view of the machine's buffer, valid for the
	// call: the later records have been decrypted over the first result.
	if string(views[0]) == "first result" {
		t.Error("the first result survived two more records: the plaintext buffer is not reused")
	}
	if m.Done() != 3 {
		t.Errorf("done = %d, want 3", m.Done())
	}
}

// TestMachineReassemblesHTTPResponseAcrossFrames: an HTTP response that
// arrives in pieces — two frames of one record, then the rest in a second
// record — is put together from copies the client keeps, not from views of
// the buffer the second record overwrites.
func TestMachineReassemblesHTTPResponseAcrossFrames(t *testing.T) {
	var observed [][]byte
	get := []byte("GET /page HTTP/1.1\r\nHost: example\r\n\r\n")
	m, f := connectMachine(t, Config{
		HTTP: true,
		Gen:  &scriptGen{ops: []workload.Op{{Op: get, Read: true}}},
		Observe: func(_, _ uint64, _ []byte, _ bool, _, _ time.Duration, result []byte) {
			observed = append(observed, bytes.Clone(result))
		},
		MaxOps: 1,
	})
	if req := f.takeRequest(); !bytes.Equal(req, get) {
		t.Fatalf("request = %q", req)
	}
	response := "HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\nabcdefghijklmnopqrstuvwxyz"
	rec, err := f.sess.SealFrames([][]byte{[]byte(response[:10]), []byte(response[10:30])})
	f.deliver(m, rec, err)
	if len(observed) != 0 {
		t.Fatalf("half a response completed the operation: %q", observed)
	}
	rec, err = f.sess.Seal([]byte(response[30:]))
	f.deliver(m, rec, err)
	if len(observed) != 1 || string(observed[0]) != response {
		t.Fatalf("observed %q, want the whole response", observed)
	}
}

// TestTCPClientResultOutlivesLaterRecords: the blocking client hands its
// caller the result as a view of the record's plaintext, so that plaintext is
// the caller's — a later request's records must not be decrypted over it.
func TestTCPClientResultOutlivesLaterRecords(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			conn, err := l.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			hello, err := wire.ReadFrame(conn)
			if err != nil {
				return err
			}
			sess, serverHello, err := securechannel.ServerHandshake(priv, hello, rand.New(rand.NewSource(2)))
			if err != nil {
				return err
			}
			if err := wire.WriteFrame(conn, serverHello); err != nil {
				return err
			}
			for seq := uint64(1); seq <= 2; seq++ {
				record, err := wire.ReadFrame(conn)
				if err != nil {
					return err
				}
				if _, err := sess.Open(record); err != nil {
					return err
				}
				// Each answer rides behind a stale reply in one coalesced record.
				answer, err := sess.SealFrames([][]byte{
					channelReply(seq-1, msg.StatusOK, "stale reply"),
					channelReply(seq, msg.StatusOK, []string{"", "first answer", "second answer"}[seq]),
				})
				if err != nil {
					return err
				}
				if err := wire.WriteFrame(conn, answer); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	client, err := Dial([]string{l.Addr().String()}, pub, 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	first, err := client.Request([]byte("GET a"), true)
	if err != nil || string(first) != "first answer" {
		t.Fatalf("first request: %q, %v", first, err)
	}
	second, err := client.Request([]byte("GET b"), true)
	if err != nil || string(second) != "second answer" {
		t.Fatalf("second request: %q, %v", second, err)
	}
	if string(first) != "first answer" {
		t.Errorf("the first result reads %q after a second request", first)
	}
	if err := <-served; err != nil {
		t.Errorf("fake service: %v", err)
	}
}
