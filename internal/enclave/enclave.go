// Package enclave provides a software-simulated trusted-execution substrate
// modelled after Intel SGX, substituting for the SGX hardware and SDK the
// paper's prototype uses.
//
// What is preserved from SGX (and why it matters for Troxy):
//
//   - The boundary discipline: trusted code is only reachable through a
//     fixed table of named entry points (ecalls). Argument buffers are
//     defensively copied when crossing into the enclave so that the
//     untrusted side cannot mutate them mid-call (TOCTOU/Iago hardening,
//     Section V-A of the paper), and results are copied out so that the
//     caller never holds trusted memory. Both copies land in memory their
//     side already owns — the argument in a buffer the enclave keeps per
//     thread slot, the result in room the caller brings — so a crossing
//     copies but does not allocate. Troxy registers a fixed table of 14
//     ecalls.
//   - Transition accounting: every ecall increments transition counters and
//     reports the copied byte volume to an optional hook. The caller charges
//     the calibrated SGX transition cost (troxy.Binding: node.ChargeTransition
//     per ecall), which is what makes the ctroxy (no enclave) versus etroxy
//     (enclave) distinction of the evaluation reproducible.
//   - EPC accounting: the Enclave Page Cache is limited (128 MiB on the
//     paper's hardware); allocations are tracked and usage beyond the limit
//     reports paging pressure that the simulator translates into latency.
//   - Measurement, attestation and provisioning: an enclave has a
//     measurement (hash of its code identity); a platform can produce a
//     quote over it; a verifier checks the quote before provisioning
//     secrets. Secrets (Troxy group key, counter key, TLS identity key)
//     reach the trusted code only through Provision.
//   - Sealing: trusted state can be sealed to an enclave-specific key.
//   - Crash/rollback semantics: Restart wipes all volatile trusted state.
//     Troxy's fast-read cache loses its content and safely falls back to
//     ordered execution, exactly the rollback behaviour Section IV-B argues.
//
// What is NOT preserved: actual memory encryption and protection against a
// malicious operating system. This is a simulation substrate; the trust
// boundary is enforced by API discipline (and checked by tests), not by
// hardware.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hkdf"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// Common errors.
var (
	// ErrNotProvisioned reports use of a capability that requires secrets
	// before Provision succeeded.
	ErrNotProvisioned = errors.New("enclave: not provisioned")

	// ErrUnknownECall reports an ecall name missing from the interface table.
	ErrUnknownECall = errors.New("enclave: unknown ecall")

	// ErrTooManyThreads reports more concurrent ecalls than the enclave's
	// thread budget (the TCS limit in SGX terms).
	ErrTooManyThreads = errors.New("enclave: concurrent ecall limit exceeded")

	// ErrEPCExhausted reports an allocation beyond the hard EPC budget.
	ErrEPCExhausted = errors.New("enclave: EPC exhausted")

	// ErrBadQuote reports a quote that failed verification.
	ErrBadQuote = errors.New("enclave: quote verification failed")

	// ErrSealCorrupt reports sealed data that failed authentication.
	ErrSealCorrupt = errors.New("enclave: sealed blob corrupt")

	// ErrStopped reports an ecall into a stopped (crashed) enclave.
	ErrStopped = errors.New("enclave: stopped")
)

// Measurement identifies enclave code (MRENCLAVE analogue).
type Measurement [sha256.Size]byte

// MeasureCode derives a measurement from a code-identity string (name plus
// version in lieu of hashing actual text pages).
func MeasureCode(identity string) Measurement {
	return sha256.Sum256([]byte("enclave-code/" + identity))
}

// DefaultEPCLimit is the EPC size of the paper's hardware.
const DefaultEPCLimit = 128 << 20

// Definition describes an enclave image prior to launch.
type Definition struct {
	// Name identifies the enclave in logs and metrics.
	Name string

	// CodeIdentity feeds the measurement; two enclaves with the same
	// identity have the same measurement and can unseal each other's data
	// on the same platform.
	CodeIdentity string

	// MaxThreads bounds concurrent ecalls. Zero means 1.
	MaxThreads int

	// EPCLimit bounds trusted memory in bytes. Zero means DefaultEPCLimit.
	EPCLimit int64
}

// TransitionHook observes enclave boundary crossings; copiedBytes is the
// volume defensively copied for the call. Both runtimes launch with none: the
// ecall's caller charges the transition cost (troxy.Binding.call).
type TransitionHook func(ecall string, copiedBytes int)

// Trusted is the code that runs inside an enclave. A handler's argument is
// the boundary's copy of what the caller passed, in a buffer the enclave
// reuses: it is the handler's for the length of the call and is overwritten
// by a later crossing. Implementations therefore must not retain the
// argument or a view of it past the call — whatever trusted state keeps, it
// copies (TestRetainedArgumentIsOverwritten shows what a handler that did
// would read; the Troxy's poison tests hold the state behind the handlers to
// it). A handler's result may be memory it reuses as
// well: the boundary has copied it out before the handler's thread slot
// admits another call.
type Trusted interface {
	// ECalls returns the enclave interface table. It is read once at launch;
	// the set of entry points is immutable afterwards, as in SGX where the
	// interface is fixed at build time.
	ECalls() map[string]func(arg []byte) ([]byte, error)

	// OnStart runs inside the enclave at launch and after Restart, with
	// access to the enclave's services. Volatile trusted state must be
	// (re)initialized here.
	OnStart(sv *Services)

	// Provision delivers secrets after remote attestation succeeded.
	Provision(secrets map[string][]byte) error
}

// Services exposes intra-enclave facilities to trusted code.
type Services struct {
	enc *Enclave
}

// Alloc records an allocation of n bytes of trusted memory. It fails only if
// the hard EPC budget (4x the limit) would be exceeded; mere limit overflow
// is allowed but counted as paging pressure.
func (s *Services) Alloc(n int64) error { return s.enc.epcAlloc(n) }

// Free records release of n bytes of trusted memory.
func (s *Services) Free(n int64) { s.enc.epcFree(n) }

// Seal encrypts and authenticates data under the enclave's sealing key.
func (s *Services) Seal(plaintext []byte) ([]byte, error) { return s.enc.seal(plaintext) }

// Unseal reverses Seal. It fails if the blob was produced by an enclave with
// a different measurement or platform, or was tampered with.
func (s *Services) Unseal(blob []byte) ([]byte, error) { return s.enc.unseal(blob) }

// Enclave is a launched enclave instance.
type Enclave struct {
	name        string
	measurement Measurement
	maxThreads  int
	epcLimit    int64
	sealAEAD    cipher.AEAD
	trusted     Trusted
	hook        TransitionHook

	mu     sync.Mutex
	ecalls map[string]*entryPoint
	active int
	// argBufs are the copy-in buffers no ecall is using: one per thread slot
	// at most, since a buffer is only made when every existing one is held by
	// an active call.
	argBufs     [][]byte
	stopped     bool
	provisioned bool
	epcUsed     int64
	epcPeak     int64
	stats       Stats
}

// entryPoint is one row of the interface table: the handler and how often it
// was crossed into. calls is guarded by Enclave.mu.
type entryPoint struct {
	fn    func([]byte) ([]byte, error)
	calls uint64
}

// maxKeptArgBuf bounds what a copy-in buffer may pin between calls: one that
// a giant argument grew past it is dropped after its call instead of kept.
const maxKeptArgBuf = 128 << 10

// Stats are the enclave's boundary-crossing and memory counters.
type Stats struct {
	// ECalls counts completed boundary crossings by entry point.
	ECalls map[string]uint64
	// Transitions is the total number of ecalls.
	Transitions uint64
	// CopiedBytes is the total volume defensively copied across the boundary.
	CopiedBytes uint64
	// EPCUsed and EPCPeak are current and peak trusted-memory usage.
	EPCUsed, EPCPeak int64
	// PagingBytes counts bytes allocated beyond the EPC limit (a proxy for
	// paging pressure).
	PagingBytes int64
	// Restarts counts Restart calls (crash/rollback events).
	Restarts uint64
}

// Platform models one SGX-capable machine. Its hardware key signs quotes and
// roots the sealing-key derivation.
type Platform struct {
	hwKey []byte // troxy:secret hardware root of trust; never leaves the platform
}

// NewPlatform creates a platform with a random hardware key.
func NewPlatform() *Platform {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		panic(fmt.Sprintf("enclave: platform key: %v", err))
	}
	return &Platform{hwKey: key}
}

// NewPlatformWithKey creates a platform with a fixed hardware key, for
// deterministic tests.
func NewPlatformWithKey(key []byte) *Platform {
	k := make([]byte, len(key))
	copy(k, key)
	return &Platform{hwKey: k}
}

// Launch creates and starts an enclave running the given trusted code.
func (p *Platform) Launch(def Definition, trusted Trusted, hook TransitionHook) (*Enclave, error) {
	if trusted == nil {
		return nil, errors.New("enclave: nil trusted code")
	}
	maxThreads := def.MaxThreads
	if maxThreads <= 0 {
		maxThreads = 1
	}
	epcLimit := def.EPCLimit
	if epcLimit <= 0 {
		epcLimit = DefaultEPCLimit
	}
	e := &Enclave{
		name:        def.Name,
		measurement: MeasureCode(def.CodeIdentity),
		maxThreads:  maxThreads,
		epcLimit:    epcLimit,
		trusted:     trusted,
		hook:        hook,
	}

	sealKey, err := hkdf.Key(sha256.New, p.hwKey, e.measurement[:], "seal", 32)
	if err != nil {
		return nil, fmt.Errorf("enclave: derive seal key: %w", err)
	}
	block, err := aes.NewCipher(sealKey)
	if err != nil {
		return nil, fmt.Errorf("enclave: seal cipher: %w", err)
	}
	e.sealAEAD, err = cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("enclave: seal GCM: %w", err)
	}

	table := trusted.ECalls()
	e.ecalls = make(map[string]*entryPoint, len(table))
	for name, fn := range table {
		if fn == nil {
			return nil, fmt.Errorf("enclave: nil handler for ecall %q", name)
		}
		e.ecalls[name] = &entryPoint{fn: fn}
	}
	trusted.OnStart(&Services{enc: e})
	return e, nil
}

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Name returns the enclave's name.
func (e *Enclave) Name() string { return e.name }

// Stats returns a snapshot of the enclave's counters.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.stats
	out.EPCUsed = e.epcUsed
	out.EPCPeak = e.epcPeak
	out.ECalls = make(map[string]uint64, len(e.ecalls))
	for name, ep := range e.ecalls {
		if ep.calls > 0 {
			out.ECalls[name] = ep.calls
		}
	}
	return out
}

// ECall crosses into the enclave and returns the result in memory of its own;
// it is ECallAppend without room for the result.
func (e *Enclave) ECall(name string, arg []byte) ([]byte, error) {
	return e.ECallAppend(nil, name, arg)
}

// ECallAppend crosses into the enclave: it validates the entry point,
// defensively copies the argument buffer, runs the handler, and copies the
// result out by appending it to dst, which it returns — so a result that fits
// dst's spare capacity lands there, and a longer one (or any, with a nil dst)
// in a new allocation, as append does. Nothing else of dst is written. When an
// ecall is refused (stopped enclave, unknown entry point, thread budget) dst
// comes back as it went in. It is safe for concurrent use up to the enclave's
// thread budget.
func (e *Enclave) ECallAppend(dst []byte, name string, arg []byte) ([]byte, error) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return dst, ErrStopped
	}
	ep, ok := e.ecalls[name]
	if !ok {
		e.mu.Unlock()
		return dst, fmt.Errorf("%w: %q", ErrUnknownECall, name)
	}
	if e.active >= e.maxThreads {
		e.mu.Unlock()
		return dst, fmt.Errorf("%w: %d", ErrTooManyThreads, e.maxThreads)
	}
	e.active++
	// This call's thread slot: a buffer no other active ecall holds.
	var buf []byte
	if last := len(e.argBufs) - 1; last >= 0 {
		buf, e.argBufs = e.argBufs[last], e.argBufs[:last]
	}
	e.mu.Unlock()

	// Defensive copy in: the untrusted caller must not be able to mutate the
	// argument while trusted code reads it.
	var in []byte
	if len(arg) > 0 {
		buf = append(buf[:0], arg...)
		in = buf
	}

	res, err := ep.fn(in)

	// Copy out: trusted buffers must not leak by alias to the caller. This
	// comes before the slot is given up — res may be the argument itself.
	out := append(dst, res...)

	copied := len(arg) + len(res)
	e.mu.Lock()
	e.active--
	if buf != nil && cap(buf) <= maxKeptArgBuf {
		e.argBufs = append(e.argBufs, buf)
	}
	e.stats.Transitions++
	ep.calls++
	e.stats.CopiedBytes += uint64(copied)
	hook := e.hook
	e.mu.Unlock()

	if hook != nil {
		hook(name, copied)
	}
	return out, err
}

// Provision delivers secrets to the trusted code. The caller is expected to
// have verified a quote first (Verifier.Verify); Provision itself only
// forwards.
func (e *Enclave) Provision(secrets map[string][]byte) error {
	// Copy the map and values across the boundary.
	in := make(map[string][]byte, len(secrets))
	for k, v := range secrets {
		c := make([]byte, len(v))
		copy(c, v)
		in[k] = c
	}
	if err := e.trusted.Provision(in); err != nil {
		return fmt.Errorf("enclave %s: provision: %w", e.name, err)
	}
	e.mu.Lock()
	e.provisioned = true
	e.mu.Unlock()
	return nil
}

// Provisioned reports whether Provision completed successfully.
func (e *Enclave) Provisioned() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.provisioned
}

// Stop marks the enclave as crashed: all further ecalls fail. It models the
// crash-only failure mode the hybrid fault model assumes for Troxies.
func (e *Enclave) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
}

// Restart models a reboot of the trusted subsystem (including an attacker's
// rollback attempt): all volatile trusted state is reinitialized via OnStart
// and the enclave accepts ecalls again. Secrets must be re-provisioned.
func (e *Enclave) Restart() {
	e.mu.Lock()
	e.stopped = false
	e.provisioned = false
	e.epcUsed = 0
	e.argBufs = nil
	e.stats.Restarts++
	e.mu.Unlock()
	e.trusted.OnStart(&Services{enc: e})
}

func (e *Enclave) epcAlloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("enclave: negative allocation %d", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.epcUsed+n > 4*e.epcLimit {
		return fmt.Errorf("%w: %d + %d exceeds hard budget %d",
			ErrEPCExhausted, e.epcUsed, n, 4*e.epcLimit)
	}
	e.epcUsed += n
	if e.epcUsed > e.epcPeak {
		e.epcPeak = e.epcUsed
	}
	if e.epcUsed > e.epcLimit {
		over := e.epcUsed - e.epcLimit
		if over > n {
			over = n
		}
		e.stats.PagingBytes += over
	}
	return nil
}

func (e *Enclave) epcFree(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epcUsed -= n
	if e.epcUsed < 0 {
		e.epcUsed = 0
	}
}

func (e *Enclave) seal(plaintext []byte) ([]byte, error) {
	nonce := make([]byte, e.sealAEAD.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("enclave: seal nonce: %w", err)
	}
	return e.sealAEAD.Seal(nonce, nonce, plaintext, e.measurement[:]), nil
}

func (e *Enclave) unseal(blob []byte) ([]byte, error) {
	ns := e.sealAEAD.NonceSize()
	if len(blob) < ns {
		return nil, ErrSealCorrupt
	}
	pt, err := e.sealAEAD.Open(nil, blob[:ns], blob[ns:], e.measurement[:])
	if err != nil {
		return nil, ErrSealCorrupt
	}
	return pt, nil
}

// Quote is an attestation statement binding an enclave measurement to a
// platform (EPID/DCAP analogue: an HMAC by the platform hardware key).
type Quote struct {
	Measurement Measurement
	// ReportData is caller-chosen data bound into the quote (e.g. a public
	// key the enclave wants to prove possession of).
	ReportData []byte
	MAC        []byte
}

// QuoteFor produces a quote for an enclave running on this platform.
func (p *Platform) QuoteFor(e *Enclave, reportData []byte) Quote {
	rd := make([]byte, len(reportData))
	copy(rd, reportData)
	return Quote{
		Measurement: e.measurement,
		ReportData:  rd,
		MAC:         quoteMAC(p.hwKey, e.measurement, rd),
	}
}

func quoteMAC(hwKey []byte, m Measurement, reportData []byte) []byte {
	mac := hmac.New(sha256.New, hwKey)
	mac.Write([]byte("quote/"))
	mac.Write(m[:])
	mac.Write(reportData)
	return mac.Sum(nil)
}

// Verifier validates quotes, playing the role of the Intel Attestation
// Service: it knows the platform keys of the deployment's machines.
type Verifier struct {
	platforms []*Platform
}

// NewVerifier creates a verifier trusting the given platforms.
func NewVerifier(platforms ...*Platform) *Verifier {
	return &Verifier{platforms: append([]*Platform(nil), platforms...)}
}

// Verify checks that q is a valid quote from one of the trusted platforms
// and matches the expected measurement.
func (v *Verifier) Verify(q Quote, expected Measurement) error {
	if q.Measurement != expected {
		return fmt.Errorf("%w: measurement mismatch", ErrBadQuote)
	}
	for _, p := range v.platforms {
		if hmac.Equal(q.MAC, quoteMAC(p.hwKey, q.Measurement, q.ReportData)) {
			return nil
		}
	}
	return fmt.Errorf("%w: unknown platform", ErrBadQuote)
}
