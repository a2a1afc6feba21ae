package troxy

import (
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Proxy is how the untrusted replica part uses its Troxy: two
// configurations, one binding (Binding). Every call encodes its argument,
// crosses into one of the entry points Trusted hosts and decodes what comes
// back; the configurations of the evaluation differ only in the crossing:
//
//   - ctroxy (NewDirectProxy): the native Troxy library, outside SGX, its
//     entry points called in process. It pays JNI crossing costs but no
//     enclave transitions.
//   - etroxy (NewEnclaveProxy): every call is an ecall into the enclave
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
	// Everything in an Actions, of this call and of every other, is lent: the
	// Client, Submits and Queries slices and every byte they point to are
	// valid until the next call into the proxy, which a submit can make (its
	// reply is voted here), so the caller uses the records and cache messages
	// before it submits, and a submit that is not the first of its Actions
	// from memory of its own (Replica.apply); Submit copies what it keeps. A
	// client record's or cache message's Body is the envelope body it leaves
	// in, which Send copies.
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

	// q and r, like rep, are the caller's and may be ones it reuses.
	HandleCacheQuery(env node.Env, q *msg.CacheQuery) (Actions, error)
	HandleCacheReply(env node.Env, r *msg.CacheReply) (Actions, error)
	Tick(env node.Env) (Actions, error)

	// Stats snapshots the Troxy counters.
	Stats() (Stats, error)
}

// chargeActions prices the per-action output work of a call.
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

// Binding is the one Proxy. An argument is built in a pooled writer, released
// once the call returns (the callee took what it keeps); a result is decoded
// by view of where it lies until the next call — the binding's result buffer,
// which the enclave boundary copies it out into, or in process the handler's
// pooled writer, which the handler releases at its next call. A reply's tag
// moves on into the reply's own storage; everything else a result points to
// is lent until the next call.
type Binding struct {
	// enc is the enclave hosting the Troxy (etroxy); without one, ecalls is
	// the Troxy's half of the interface, called in process (ctroxy).
	enc     *enclave.Enclave
	ecalls  map[string]func([]byte) ([]byte, error)
	profile node.Profile
	out     []byte  // the last copy-out of the enclave, valid until the next call
	lent    Actions // the last result decoded, whose slices the next reuses
}

// NewDirectProxy binds a provisioned core in process, without an enclave
// boundary: the Troxy's entry points, and no counter subsystem behind them.
func NewDirectProxy(core *Core) *Binding {
	t := &Trusted{core: core}
	return &Binding{ecalls: t.accounted(t.troxyECalls()), profile: node.ProfileCpp}
}

// NewEnclaveProxy binds a launched Troxy enclave.
func NewEnclaveProxy(enc *enclave.Enclave) *Binding {
	return &Binding{enc: enc, profile: node.ProfileEnclave}
}

var _ Proxy = (*Binding)(nil)

// Profile implements Proxy.
func (p *Binding) Profile() node.Profile { return p.profile }

// call crosses into the Troxy — the JNI crossing from the Java replica host
// into native code, then the ecall, whose copy-out lands in the binding's
// result buffer over the last one, or the same handler in process, whose
// result needs no copy: it lives as long as what the binding lends.
func (p *Binding) call(env node.Env, name string, arg []byte) ([]byte, error) {
	env.Charge(p.profile, node.ChargeJNI, len(arg))
	if p.enc == nil {
		return p.ecalls[name](arg)
	}
	var err error
	p.out, err = p.enc.ECallAppend(p.out[:0], name, arg)
	env.Charge(p.profile, node.ChargeTransition, len(arg)+len(p.out))
	return p.out, err
}

// actions is call for an entry point whose result is an Actions. Once the
// Troxy has answered it charges the tag check of what it was handed (mac
// bytes) and the vote's hash (hash bytes), either skipped at zero, then the
// Actions' output work.
func (p *Binding) actions(env node.Env, name string, arg []byte, mac, hash int) (Actions, error) {
	out, err := p.call(env, name, arg)
	if err != nil {
		return Actions{}, err
	}
	if mac > 0 {
		env.Charge(p.profile, node.ChargeMAC, mac)
	}
	if hash > 0 {
		env.Charge(p.profile, node.ChargeHash, hash)
	}
	acts, err := decodeActions(out, &p.lent)
	if err != nil {
		return Actions{}, err
	}
	p.lent = acts
	chargeActions(env, p.profile, &acts)
	return acts, nil
}

// tag is call for the authenticate entry points: it appends the result's tag
// to dst.
func (p *Binding) tag(env node.Env, dst []byte, name string, arg []byte) ([]byte, error) {
	out, err := p.call(env, name, arg)
	if err != nil {
		return dst, err
	}
	r := wire.NewReader(out)
	dst = append(dst, r.Bytes32()...)
	return dst, r.Finish()
}

// AcceptConn implements Proxy.
func (p *Binding) AcceptConn(env node.Env, connID uint64, from msg.NodeID) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U64(connID)
	w.U32(uint32(from))
	_, _ = p.call(env, ECallAccept, w.Bytes())
}

// CloseConn implements Proxy.
func (p *Binding) CloseConn(env node.Env, connID uint64) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U64(connID)
	_, _ = p.call(env, ECallClose, w.Bytes())
}

// HandleClientData implements Proxy. Besides the actions it charges the
// secure-channel record's AEAD.
func (p *Binding) HandleClientData(env node.Env, connID uint64, from msg.NodeID, payload []byte) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	w.U64(connID)
	w.U32(uint32(from))
	w.Bytes32(payload)
	acts, err := p.actions(env, ECallClientData, w.Bytes(), 0, 0)
	if err == nil {
		env.Charge(p.profile, node.ChargeAEAD, len(payload))
	}
	return acts, err
}

// AuthenticateReply implements Proxy.
func (p *Binding) AuthenticateReply(env node.Env, rep *msg.OrderedReply, read, fresh bool, opHash msg.Digest) error {
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
func (p *Binding) HandleReply(env node.Env, rep *msg.OrderedReply) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	rep.MarshalWire(w)
	n := len(rep.Result) + 64
	return p.actions(env, ECallHandleReply, w.Bytes(), n, n)
}

// AuthenticateSpecReply implements Proxy.
func (p *Binding) AuthenticateSpecReply(env node.Env, sr *msg.SpecReply) error {
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
func (p *Binding) HandleSpecReply(env node.Env, sr *msg.SpecReply) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	sr.MarshalWire(w)
	n := len(sr.Result) + 96
	return p.actions(env, ECallSpecReply, w.Bytes(), n, n)
}

// HandleRetract implements Proxy.
func (p *Binding) HandleRetract(env node.Env, client, clientSeq, slotSeq, view uint64) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U64(client)
	w.U64(clientSeq)
	w.U64(slotSeq)
	w.U64(view)
	return p.actions(env, ECallRetract, w.Bytes(), 0, 0)
}

// HandleCacheQuery implements Proxy.
func (p *Binding) HandleCacheQuery(env node.Env, q *msg.CacheQuery) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	q.MarshalWire(w)
	return p.actions(env, ECallCacheQuery, w.Bytes(), 64, 0)
}

// HandleCacheReply implements Proxy.
func (p *Binding) HandleCacheReply(env node.Env, r *msg.CacheReply) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	r.MarshalWire(w)
	return p.actions(env, ECallCacheReply, w.Bytes(), 96, 0)
}

// Tick implements Proxy.
func (p *Binding) Tick(env node.Env) (Actions, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.I64(int64(env.Now()))
	return p.actions(env, ECallTick, w.Bytes(), 0, 0)
}

// Stats implements Proxy.
func (p *Binding) Stats() (Stats, error) {
	var out []byte
	var err error
	if p.enc == nil {
		out, err = p.ecalls[ECallStats](nil)
	} else {
		out, err = p.enc.ECall(ECallStats, nil)
	}
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(out)
}
