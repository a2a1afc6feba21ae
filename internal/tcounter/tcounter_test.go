package tcounter

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

func provisioned(owner msg.NodeID) *Subsystem {
	s := NewSubsystem(owner)
	s.SetKey([]byte("shared-counter-key"))
	return s
}

func TestCertifyVerify(t *testing.T) {
	a := provisioned(0)
	b := provisioned(1)

	d := msg.DigestOf([]byte("prepare"))
	cert, err := a.Certify(OrderCounter(0), 1, d)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if cert.Replica != 0 || cert.Counter != OrderCounter(0) || cert.Value != 1 {
		t.Errorf("cert fields = %+v", cert)
	}
	if !b.Verify(cert, d) {
		t.Error("peer subsystem rejected valid certificate")
	}
	if b.Verify(cert, msg.DigestOf([]byte("other"))) {
		t.Error("certificate accepted for wrong digest")
	}

	forged := cert
	forged.Value = 2
	if b.Verify(forged, d) {
		t.Error("value-modified certificate accepted")
	}
	forged = cert
	forged.Replica = 1
	if b.Verify(forged, d) {
		t.Error("owner-modified certificate accepted")
	}
}

func TestMonotonicity(t *testing.T) {
	s := provisioned(0)
	d := msg.DigestOf([]byte("m"))

	if _, err := s.Certify(1, 5, d); err != nil { // first value may be arbitrary
		t.Fatalf("first certify: %v", err)
	}
	if _, err := s.Certify(1, 5, d); !errors.Is(err, ErrNotMonotonic) {
		t.Errorf("re-certify same value: %v", err)
	}
	if _, err := s.Certify(1, 4, d); !errors.Is(err, ErrNotMonotonic) {
		t.Errorf("certify lower value: %v", err)
	}
	if _, err := s.Certify(1, 6, d); err != nil {
		t.Errorf("certify next value: %v", err)
	}
	if got := s.Value(1); got != 6 {
		t.Errorf("Value = %d, want 6", got)
	}
	// Independent counters do not interfere.
	if _, err := s.Certify(2, 1, d); err != nil {
		t.Errorf("independent counter: %v", err)
	}
	if _, err := s.Certify(1, 0, d); !errors.Is(err, ErrNotMonotonic) {
		t.Errorf("zero value: %v", err)
	}
}

func TestZeroFirstValueRejected(t *testing.T) {
	s := provisioned(0)
	if _, err := s.Certify(9, 0, msg.Digest{}); !errors.Is(err, ErrNotMonotonic) {
		t.Errorf("first value 0: %v", err)
	}
}

func TestUnprovisioned(t *testing.T) {
	s := NewSubsystem(0)
	if _, err := s.Certify(1, 1, msg.Digest{}); !errors.Is(err, ErrNotProvisioned) {
		t.Errorf("unprovisioned certify: %v", err)
	}
	p := provisioned(1)
	cert, err := p.Certify(1, 1, msg.Digest{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Verify(cert, msg.Digest{}) {
		t.Error("unprovisioned subsystem verified a certificate")
	}
}

func TestDifferentKeysDisagree(t *testing.T) {
	a := NewSubsystem(0)
	a.SetKey([]byte("key-a"))
	b := NewSubsystem(1)
	b.SetKey([]byte("key-b"))
	cert, err := a.Certify(1, 1, msg.Digest{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Verify(cert, msg.Digest{}) {
		t.Error("certificate verified under different key")
	}
}

func TestReset(t *testing.T) {
	s := provisioned(0)
	if _, err := s.Certify(1, 10, msg.Digest{}); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if _, err := s.Certify(1, 1, msg.Digest{}); !errors.Is(err, ErrNotProvisioned) {
		t.Errorf("reset must drop the key: %v", err)
	}
}

func TestOrderCounterIDs(t *testing.T) {
	if OrderCounter(0) == ViewChangeCounter || OrderCounter(1) == NewViewCounter {
		t.Error("ordering counters collide with control counters")
	}
	if OrderCounter(3) != 3 {
		t.Errorf("OrderCounter(3) = %d", OrderCounter(3))
	}
}

func TestLaneCounters(t *testing.T) {
	// Depth <= 1 collapses to the unpipelined scheme: one lane, the classic
	// per-view counter ID.
	for _, depth := range []int{0, 1} {
		if LaneOf(7, depth) != 0 {
			t.Errorf("LaneOf(7, %d) = %d, want 0", depth, LaneOf(7, depth))
		}
		if OrderLaneCounter(3, 0, depth) != OrderCounter(3) {
			t.Errorf("OrderLaneCounter(3, 0, %d) != OrderCounter(3)", depth)
		}
	}

	// Lanes stripe the sequence space round-robin: a window of depth
	// consecutive sequence numbers touches each lane exactly once.
	const depth = 4
	seen := make(map[int]bool)
	for seq := uint64(9); seq < 9+depth; seq++ {
		seen[LaneOf(seq, depth)] = true
	}
	if len(seen) != depth {
		t.Errorf("window of %d seqs covered %d lanes, want %d", depth, len(seen), depth)
	}
	// Within a lane the values step by exactly depth.
	if LaneOf(2, depth) != LaneOf(2+depth, depth) {
		t.Error("seq and seq+depth must share a lane")
	}

	// Distinct (view, lane) pairs must map to distinct counter IDs, and no
	// lane counter may collide with the control counters.
	ids := make(map[uint32]string)
	for view := uint64(0); view < 8; view++ {
		for lane := 0; lane < depth; lane++ {
			id := OrderLaneCounter(view, lane, depth)
			if id >= ViewChangeCounter {
				t.Errorf("lane counter (view=%d lane=%d) = %d collides with control space", view, lane, id)
			}
			if prev, dup := ids[id]; dup {
				t.Errorf("counter %d assigned to both %s and (view=%d lane=%d)", id, prev, view, lane)
			}
			ids[id] = fmt.Sprintf("(view=%d lane=%d)", view, lane)
		}
	}

	// The subsystem accepts per-lane certification out of sequence order:
	// seq 2 (lane 1) before seq 1 (lane 0), then 5 and 6 riding their lanes.
	s := provisioned(0)
	for _, seq := range []uint64{2, 1, 4, 3, 6, 5} {
		c := OrderLaneCounter(0, LaneOf(seq, depth), depth)
		if _, err := s.Certify(c, seq, msg.Digest{1}); err != nil {
			t.Fatalf("lane certify seq %d: %v", seq, err)
		}
	}
	// ...but still refuses to re-certify or roll back within a lane.
	c := OrderLaneCounter(0, LaneOf(5, depth), depth)
	if _, err := s.Certify(c, 5, msg.Digest{2}); !errors.Is(err, ErrNotMonotonic) {
		t.Errorf("re-certifying seq 5 on its lane: %v, want ErrNotMonotonic", err)
	}
}

func TestQuickMonotoneInvariant(t *testing.T) {
	// Property: for any sequence of certify attempts, the accepted values on
	// a counter are strictly increasing.
	f := func(values []uint16) bool {
		s := provisioned(0)
		var accepted []uint64
		for _, raw := range values {
			v := uint64(raw)
			if _, err := s.Certify(7, v, msg.Digest{}); err == nil {
				accepted = append(accepted, v)
			}
		}
		for i := 1; i < len(accepted); i++ {
			if accepted[i] <= accepted[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// enclaveHost hosts a counter subsystem inside a simulated enclave for the
// facade tests.
type enclaveHost struct {
	s *Subsystem
}

func (h *enclaveHost) ECalls() map[string]func([]byte) ([]byte, error) {
	return ECallHandlers(h.s)
}

func (h *enclaveHost) OnStart(*enclave.Services) { h.s.Reset() }

func (h *enclaveHost) Provision(secrets map[string][]byte) error {
	key, ok := secrets[SecretName]
	if !ok {
		return errors.New("missing counter key")
	}
	h.s.SetKey(key)
	return nil
}

func TestEnclaveAuthority(t *testing.T) {
	platform := enclave.NewPlatformWithKey([]byte("hw"))
	host := &enclaveHost{s: NewSubsystem(2)}
	enc, err := platform.Launch(
		enclave.Definition{Name: "tc", CodeIdentity: "tc-v1"}, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Provision(map[string][]byte{SecretName: []byte("k")}); err != nil {
		t.Fatal(err)
	}

	auth := EnclaveAuthority{E: enc}
	d := msg.DigestOf([]byte("x"))
	cert, err := auth.Certify(5, 1, d)
	if err != nil {
		t.Fatalf("Certify via ecall: %v", err)
	}
	if cert.Replica != 2 || cert.Value != 1 {
		t.Errorf("cert = %+v", cert)
	}
	if !auth.Verify(cert, d) {
		t.Error("Verify via ecall rejected valid cert")
	}
	if auth.Verify(cert, msg.DigestOf([]byte("y"))) {
		t.Error("Verify via ecall accepted wrong digest")
	}
	if _, err := auth.Certify(5, 1, d); err == nil {
		t.Error("monotonicity not enforced through ecall")
	}

	// Transition accounting: 4 ecalls so far (certify, verify, verify,
	// failed certify).
	if got := enc.Stats().Transitions; got != 4 {
		t.Errorf("transitions = %d, want 4", got)
	}

	// Restart wipes the key: the authority stops working until
	// re-provisioned (rollback does not resurrect old counter state).
	enc.Restart()
	if _, err := auth.Certify(5, 10, d); err == nil {
		t.Error("certify succeeded after restart without provisioning")
	}
}

// TestVerifyResultIsNotTrustedMemory: the verify handler answers with one of
// two arrays it never allocates again, which only works because the boundary
// copies a result out — a caller that scribbles on what it got must not turn
// the next rejection into an acceptance.
func TestVerifyResultIsNotTrustedMemory(t *testing.T) {
	platform := enclave.NewPlatformWithKey([]byte("hw"))
	enc, err := platform.Launch(enclave.Definition{Name: "tc", CodeIdentity: "tc-v1"}, Hosted{S: NewSubsystem(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Provision(map[string][]byte{SecretName: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	auth := EnclaveAuthority{E: enc}
	d, other := msg.DigestOf([]byte("x")), msg.DigestOf([]byte("y"))
	cert, err := auth.Certify(5, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(128)
	cert.MarshalWire(w)
	w.Raw(other[:])
	out, err := enc.ECall(ECallVerify, w.Bytes())
	if err != nil || len(out) != 1 || out[0] != 0 {
		t.Fatalf("verify of a wrong digest = %v, %v", out, err)
	}
	out[0] = 1
	if auth.Verify(cert, other) {
		t.Error("a caller's write to a verify result changed the next one")
	}
	if !auth.Verify(cert, d) {
		t.Error("valid certificate rejected")
	}
}

func TestDirectAuthority(t *testing.T) {
	s := provisioned(1)
	var auth Authority = Direct{S: s}
	d := msg.DigestOf([]byte("z"))
	cert, err := auth.Certify(1, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	if !auth.Verify(cert, d) {
		t.Error("direct verify failed")
	}
}

// BenchmarkAllocGate: a certificate's MAC input is built in the subsystem's
// scratch, so certifying allocates the certificate's MAC and nothing else,
// and verifying allocates nothing. Across the boundary a certificate is
// encoded, its MAC summed, into the ecall table's scratch, and what it costs
// the caller is the boundary's copy-out.
func BenchmarkAllocGate(b *testing.B) {
	s := NewSubsystem(0)
	s.SetKey([]byte("gate"))
	digest := msg.DigestOf([]byte("statement"))
	var cert msg.CounterCert
	value := uint64(0)
	testutil.AllocGate(b, "Certify", 1, func() {
		value++
		var err error
		if cert, err = s.Certify(7, value, digest); err != nil {
			b.Fatal(err)
		}
	})
	testutil.AllocGate(b, "Verify", 0, func() {
		if !s.Verify(cert, digest) {
			b.Fatal("certificate rejected")
		}
	})

	// Across the boundary: the argument is copied into the enclave's buffer
	// and the one-byte verdict out onto the caller's frame.
	platform := enclave.NewPlatformWithKey([]byte("hw"))
	enc, err := platform.Launch(enclave.Definition{Name: "tc", CodeIdentity: "tc-v1"}, &enclaveHost{s: s}, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.SetKey([]byte("gate")) // launching reset the subsystem
	auth := EnclaveAuthority{E: enc}
	value = 0
	testutil.AllocGate(b, "EnclaveAuthorityCertify", 1, func() {
		value++
		if cert, err = auth.Certify(7, value, digest); err != nil {
			b.Fatal(err)
		}
	})
	testutil.AllocGate(b, "EnclaveAuthorityVerify", 0, func() {
		if !auth.Verify(cert, digest) {
			b.Fatal("certificate rejected")
		}
	})
}
