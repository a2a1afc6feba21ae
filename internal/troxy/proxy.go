package troxy

import (
	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Proxy is how the untrusted replica part uses its Troxy. Two bindings
// exist, matching the evaluation's configurations:
//
//   - DirectProxy ("ctroxy"): the native Troxy library invoked directly,
//     outside SGX. It pays JNI crossing costs but no enclave transitions.
//   - EnclaveProxy ("etroxy"): every call is an ecall into the enclave
//     hosting the Troxy, paying JNI plus transition costs and copying all
//     buffers across the boundary.
//
// Both charge the same inner crypto costs (record AEAD, group-tag HMACs) so
// the simulated difference between them is exactly the trusted-subsystem
// overhead — the quantity Figure 6 isolates.
type Proxy interface {
	// Profile identifies the implementation technology for cost accounting.
	Profile() node.Profile

	// AcceptConn, CloseConn, HandleClientData, AuthenticateReply,
	// HandleReply, HandleCacheQuery, HandleCacheReply and Tick mirror the
	// Core methods; see internal/troxy.Core.
	AcceptConn(env node.Env, connID uint64, from msg.NodeID)
	CloseConn(env node.Env, connID uint64)
	//
	// Every byte slice in an Actions, of this call and of every other, is the
	// caller's to keep, and so is every message and slice an Actions holds:
	// what a Core call returns lives in the Core's scratch until its next
	// call, and both bindings copy it out once — the enclave binding's are
	// views of the boundary's copy-out, the direct binding makes the same
	// copy. Ordering keeps a submit as it is handed over, a client record's
	// Body is the envelope body it leaves in, and a call can re-enter the
	// proxy before the caller is done with the Actions of the last.
	HandleClientData(env node.Env, connID uint64, from msg.NodeID, payload []byte) (Actions, error)
	//
	// rep is the caller's in both reply calls and may be one it reuses: no
	// implementation keeps it or a view of its fields past the call.
	// AuthenticateReply sets rep.TroxyTag and may write the tag into the
	// storage of the tag rep came with, which therefore nothing else may
	// refer to.
	AuthenticateReply(env node.Env, rep *msg.OrderedReply, read, fresh bool, opHash msg.Digest) error
	HandleReply(env node.Env, rep *msg.OrderedReply) (Actions, error)

	// AuthenticateSpecReply, HandleSpecReply and HandleRetract are the
	// speculative (crash-commit) tier's entry points; see internal/troxy.Core.
	AuthenticateSpecReply(env node.Env, sr *msg.SpecReply) error
	HandleSpecReply(env node.Env, sr *msg.SpecReply) (Actions, error)
	HandleRetract(env node.Env, client, clientSeq, slotSeq, view uint64) (Actions, error)

	HandleCacheQuery(env node.Env, q *msg.CacheQuery) (Actions, error)
	HandleCacheReply(env node.Env, r *msg.CacheReply) (Actions, error)
	Tick(env node.Env) (Actions, error)

	// Stats snapshots the Troxy counters.
	Stats() (Stats, error)
}

// chargeCommon prices the work every binding performs for a call: the JNI
// crossing from the Java replica host into native code.
func chargeCommon(env node.Env, p node.Profile, bytes int) {
	env.Charge(p, node.ChargeJNI, bytes)
}

// chargeClientData prices secure-channel record processing and per-action
// output work, shared by both bindings.
func chargeClientData(env node.Env, p node.Profile, payload []byte, acts *Actions) {
	env.Charge(p, node.ChargeAEAD, len(payload))
	chargeActions(env, p, acts)
}

func chargeActions(env node.Env, p node.Profile, acts *Actions) {
	for _, cr := range acts.Client {
		env.Charge(p, node.ChargeAEAD, len(cr.Frame))
	}
	for i := range acts.Submits {
		env.Charge(p, node.ChargeHash, len(acts.Submits[i].Op))
	}
	for range acts.Queries {
		env.Charge(p, node.ChargeMAC, 64)
	}
}

// DirectProxy invokes the Core in-process ("ctroxy").
type DirectProxy struct {
	core    *Core
	profile node.Profile
}

// own copies a Core call's actions out of the Core's scratch — where there is
// no boundary to copy them out, this is the copy the caller is owed — the way
// the enclave binding's copy-out does and through the same codec: one buffer
// for every byte, each client record's Body built in it. A call that failed
// or did nothing returns no actions.
func own(acts Actions, err error) (Actions, error) {
	if err != nil || len(acts.Client)+len(acts.Submits)+len(acts.Queries) == 0 {
		return Actions{}, err
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	encodeActions(w, &acts)
	return decodeActions(w.CopyBytes())
}

// NewDirectProxy wraps a core without an enclave boundary.
func NewDirectProxy(core *Core) *DirectProxy {
	return &DirectProxy{core: core, profile: node.ProfileCpp}
}

var _ Proxy = (*DirectProxy)(nil)

// Profile implements Proxy.
func (p *DirectProxy) Profile() node.Profile { return p.profile }

// AcceptConn implements Proxy.
func (p *DirectProxy) AcceptConn(env node.Env, connID uint64, from msg.NodeID) {
	chargeCommon(env, p.profile, 16)
	p.core.AcceptConn(connID, from)
}

// CloseConn implements Proxy.
func (p *DirectProxy) CloseConn(env node.Env, connID uint64) {
	chargeCommon(env, p.profile, 8)
	p.core.CloseConn(connID)
}

// HandleClientData implements Proxy.
func (p *DirectProxy) HandleClientData(env node.Env, connID uint64, from msg.NodeID, payload []byte) (Actions, error) {
	chargeCommon(env, p.profile, len(payload))
	acts, err := own(p.core.HandleClientData(env.Now(), connID, from, payload))
	if err != nil {
		return acts, err
	}
	chargeClientData(env, p.profile, payload, &acts)
	return acts, nil
}

// AuthenticateReply implements Proxy.
func (p *DirectProxy) AuthenticateReply(env node.Env, rep *msg.OrderedReply, read, fresh bool, opHash msg.Digest) error {
	n := len(rep.Result) + 64
	chargeCommon(env, p.profile, n)
	env.Charge(p.profile, node.ChargeMAC, n)
	return p.core.AuthenticateReply(rep, read, fresh, opHash, rep.TroxyTag)
}

// HandleReply implements Proxy.
func (p *DirectProxy) HandleReply(env node.Env, rep *msg.OrderedReply) (Actions, error) {
	n := len(rep.Result) + 64
	chargeCommon(env, p.profile, n)
	env.Charge(p.profile, node.ChargeMAC, n)  // tag verification
	env.Charge(p.profile, node.ChargeHash, n) // vote hash
	acts, err := own(p.core.HandleReply(env.Now(), rep))
	if err != nil {
		return acts, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// AuthenticateSpecReply implements Proxy.
func (p *DirectProxy) AuthenticateSpecReply(env node.Env, sr *msg.SpecReply) error {
	n := len(sr.Result) + 96
	chargeCommon(env, p.profile, n)
	env.Charge(p.profile, node.ChargeMAC, n)
	return p.core.AuthenticateSpecReply(sr)
}

// HandleSpecReply implements Proxy.
func (p *DirectProxy) HandleSpecReply(env node.Env, sr *msg.SpecReply) (Actions, error) {
	n := len(sr.Result) + 96
	chargeCommon(env, p.profile, n)
	env.Charge(p.profile, node.ChargeMAC, n)  // tag verification
	env.Charge(p.profile, node.ChargeHash, n) // spec vote hash
	acts, err := own(p.core.HandleSpecReply(env.Now(), sr))
	if err != nil {
		return acts, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// HandleRetract implements Proxy.
func (p *DirectProxy) HandleRetract(env node.Env, client, clientSeq, slotSeq, view uint64) (Actions, error) {
	chargeCommon(env, p.profile, 32)
	acts, err := own(p.core.HandleRetract(client, clientSeq, slotSeq, view))
	if err != nil {
		return acts, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// HandleCacheQuery implements Proxy.
func (p *DirectProxy) HandleCacheQuery(env node.Env, q *msg.CacheQuery) (Actions, error) {
	chargeCommon(env, p.profile, 64)
	env.Charge(p.profile, node.ChargeMAC, 64) // tag verification
	acts, err := own(p.core.HandleCacheQuery(q))
	if err != nil {
		return acts, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// HandleCacheReply implements Proxy.
func (p *DirectProxy) HandleCacheReply(env node.Env, r *msg.CacheReply) (Actions, error) {
	chargeCommon(env, p.profile, 96)
	env.Charge(p.profile, node.ChargeMAC, 96)
	acts, err := own(p.core.HandleCacheReply(env.Now(), r))
	if err != nil {
		return acts, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// Tick implements Proxy.
func (p *DirectProxy) Tick(env node.Env) (Actions, error) {
	acts, err := own(p.core.Tick(env.Now()), nil)
	if err != nil {
		return acts, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// Stats implements Proxy.
func (p *DirectProxy) Stats() (Stats, error) { return p.core.Stats(), nil }

// EnclaveProxy routes every call through the enclave's ecall interface
// ("etroxy"). Arguments are serialized, defensively copied by the boundary,
// and results decoded back — the full cost of the paper's trusted subsystem.
// An argument is built in a pooled writer, released once the ecall returns
// (the boundary took its own copy); a result is the boundary's copy-out and
// is decoded by view. The proxy brings room for the two results nothing keeps
// — a reply's tag, which moves on into the reply's own storage, and the
// encoding of an empty Actions, which has no bytes to view; any other result
// is longer than the room it is offered, so the copy-out allocates and the
// decoded Actions own what they point to.
type EnclaveProxy struct {
	enc     *enclave.Enclave
	profile node.Profile
	room    [tagResultLen]byte // valid until the next call
}

const (
	// tagResultLen is the encoded result of the two authenticate ecalls.
	tagResultLen = 4 + authn.TagSize
	// noActionsLen is the encoding of an Actions with nothing in it: three
	// zero counts.
	noActionsLen = 12
)

// NewEnclaveProxy wraps a launched Troxy enclave.
func NewEnclaveProxy(enc *enclave.Enclave) *EnclaveProxy {
	return &EnclaveProxy{enc: enc, profile: node.ProfileEnclave}
}

var _ Proxy = (*EnclaveProxy)(nil)

// Profile implements Proxy.
func (p *EnclaveProxy) Profile() node.Profile { return p.profile }

// Enclave returns the underlying enclave (tests inspect its stats).
func (p *EnclaveProxy) Enclave() *enclave.Enclave { return p.enc }

// call crosses into the enclave; the result is appended to room.
func (p *EnclaveProxy) call(env node.Env, room []byte, name string, arg []byte) ([]byte, error) {
	chargeCommon(env, p.profile, len(arg))
	out, err := p.enc.ECallAppend(room, name, arg)
	env.Charge(p.profile, node.ChargeTransition, len(arg)+len(out))
	return out, err
}

// actions is call for an ecall whose result is an Actions.
func (p *EnclaveProxy) actions(env node.Env, name string, arg []byte) ([]byte, error) {
	return p.call(env, p.room[:0:noActionsLen], name, arg)
}

// tag is call for the authenticate ecalls: it appends the result's tag to dst.
func (p *EnclaveProxy) tag(env node.Env, dst []byte, name string, arg []byte) ([]byte, error) {
	out, err := p.call(env, p.room[:0], name, arg)
	if err != nil {
		return dst, err
	}
	r := wire.NewReader(out)
	dst = append(dst, r.Bytes32()...)
	return dst, r.Finish()
}

// AcceptConn implements Proxy.
func (p *EnclaveProxy) AcceptConn(env node.Env, connID uint64, from msg.NodeID) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U64(connID)
	w.U32(uint32(from))
	_, _ = p.call(env, nil, ECallAccept, w.Bytes())
}

// CloseConn implements Proxy.
func (p *EnclaveProxy) CloseConn(env node.Env, connID uint64) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U64(connID)
	_, _ = p.call(env, nil, ECallClose, w.Bytes())
}

// HandleClientData implements Proxy.
func (p *EnclaveProxy) HandleClientData(env node.Env, connID uint64, from msg.NodeID, payload []byte) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	w.U64(connID)
	w.U32(uint32(from))
	w.Bytes32(payload)
	out, err := p.actions(env, ECallClientData, w.Bytes())
	if err != nil {
		return Actions{}, err
	}
	acts, err := decodeActions(out)
	if err != nil {
		return Actions{}, err
	}
	chargeClientData(env, p.profile, payload, &acts)
	return acts, nil
}

// AuthenticateReply implements Proxy.
func (p *EnclaveProxy) AuthenticateReply(env node.Env, rep *msg.OrderedReply, read, fresh bool, opHash msg.Digest) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Bool(read)
	w.Bool(fresh)
	w.Raw(opHash[:])
	rep.MarshalWire(w)
	tag, err := p.tag(env, rep.TroxyTag[:0], ECallAuthReply, w.Bytes())
	if err != nil {
		return err
	}
	env.Charge(p.profile, node.ChargeMAC, len(rep.Result)+64)
	rep.TroxyTag = tag
	return nil
}

// HandleReply implements Proxy.
func (p *EnclaveProxy) HandleReply(env node.Env, rep *msg.OrderedReply) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	rep.MarshalWire(w)
	out, err := p.actions(env, ECallHandleReply, w.Bytes())
	if err != nil {
		return Actions{}, err
	}
	n := len(rep.Result) + 64
	env.Charge(p.profile, node.ChargeMAC, n)
	env.Charge(p.profile, node.ChargeHash, n)
	acts, err := decodeActions(out)
	if err != nil {
		return Actions{}, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// AuthenticateSpecReply implements Proxy.
func (p *EnclaveProxy) AuthenticateSpecReply(env node.Env, sr *msg.SpecReply) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	sr.MarshalWire(w)
	tag, err := p.tag(env, sr.TroxyTag[:0], ECallAuthSpecReply, w.Bytes())
	if err != nil {
		return err
	}
	env.Charge(p.profile, node.ChargeMAC, len(sr.Result)+96)
	sr.TroxyTag = tag
	return nil
}

// HandleSpecReply implements Proxy.
func (p *EnclaveProxy) HandleSpecReply(env node.Env, sr *msg.SpecReply) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	sr.MarshalWire(w)
	out, err := p.actions(env, ECallSpecReply, w.Bytes())
	if err != nil {
		return Actions{}, err
	}
	n := len(sr.Result) + 96
	env.Charge(p.profile, node.ChargeMAC, n)
	env.Charge(p.profile, node.ChargeHash, n)
	acts, err := decodeActions(out)
	if err != nil {
		return Actions{}, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// HandleRetract implements Proxy.
func (p *EnclaveProxy) HandleRetract(env node.Env, client, clientSeq, slotSeq, view uint64) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U64(client)
	w.U64(clientSeq)
	w.U64(slotSeq)
	w.U64(view)
	out, err := p.actions(env, ECallRetract, w.Bytes())
	if err != nil {
		return Actions{}, err
	}
	acts, err := decodeActions(out)
	if err != nil {
		return Actions{}, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// HandleCacheQuery implements Proxy.
func (p *EnclaveProxy) HandleCacheQuery(env node.Env, q *msg.CacheQuery) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	q.MarshalWire(w)
	out, err := p.actions(env, ECallCacheQuery, w.Bytes())
	if err != nil {
		return Actions{}, err
	}
	env.Charge(p.profile, node.ChargeMAC, 64)
	acts, err := decodeActions(out)
	if err != nil {
		return Actions{}, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// HandleCacheReply implements Proxy.
func (p *EnclaveProxy) HandleCacheReply(env node.Env, r *msg.CacheReply) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	r.MarshalWire(w)
	out, err := p.actions(env, ECallCacheReply, w.Bytes())
	if err != nil {
		return Actions{}, err
	}
	env.Charge(p.profile, node.ChargeMAC, 96)
	acts, err := decodeActions(out)
	if err != nil {
		return Actions{}, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// Tick implements Proxy.
func (p *EnclaveProxy) Tick(env node.Env) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	out, err := p.actions(env, ECallTick, w.Bytes())
	if err != nil {
		return Actions{}, err
	}
	acts, err := decodeActions(out)
	if err != nil {
		return Actions{}, err
	}
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// Stats implements Proxy.
func (p *EnclaveProxy) Stats() (Stats, error) {
	out, err := p.enc.ECall(ECallStats, nil)
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(out)
}
