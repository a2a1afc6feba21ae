package troxy

import (
	"errors"
	"fmt"
	"time"

	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/tcounter"
	"github.com/troxy-bft/troxy/internal/wire"
)

// The enclave interface. The paper's prototype "defines only 16 ecalls and
// no ocalls" (Section V-A); here it is 14 and still no ocall: twelve Troxy
// entry points (three of them the speculative tier's) and the two of the
// trusted-counter subsystem co-located in the same enclave
// (tcounter.ECallCertify and tcounter.ECallVerify). Nothing the host does not
// call is an entry point.
const (
	ECallAccept        = "troxy_accept_connection"
	ECallClose         = "troxy_close_connection"
	ECallClientData    = "troxy_handle_client_data"
	ECallAuthReply     = "troxy_authenticate_reply"
	ECallHandleReply   = "troxy_handle_reply"
	ECallAuthSpecReply = "troxy_authenticate_spec_reply"
	ECallSpecReply     = "troxy_handle_spec_reply"
	ECallRetract       = "troxy_handle_retract"
	ECallCacheQuery    = "troxy_handle_cache_query"
	ECallCacheReply    = "troxy_handle_cache_reply"
	ECallTick          = "troxy_tick"
	ECallStats         = "troxy_get_stats"
)

// CodeIdentity is the enclave measurement input for the Troxy enclave.
const CodeIdentity = "troxy-enclave-v1"

// Trusted hosts a Core and a trusted-counter subsystem behind the enclave
// boundary, serializing every argument and result (the enclave copies both
// directions; see internal/enclave). A binding without an enclave calls the
// Core's half of the same handlers in process (NewDirectProxy).
type Trusted struct {
	core     *Core
	counters *tcounter.Subsystem
	sv       *enclave.Services

	// epcReported is the cache footprint last reported to the EPC account.
	epcReported int64

	// res holds the result of the ecall in progress. A handler's result is
	// trusted memory the binding copies out before it makes its next call
	// (the enclave admits one thread), so the buffer is pooled: taken by
	// result, returned when the next ecall starts.
	res *wire.Writer

	// tag is where the Core writes the tag of the reply being authenticated,
	// on its way into res.
	tag [tagSize]byte
}

var _ enclave.Trusted = (*Trusted)(nil)

// NewTrusted bundles a Troxy core and counter subsystem for enclave hosting.
func NewTrusted(core *Core, counters *tcounter.Subsystem) *Trusted {
	return &Trusted{core: core, counters: counters}
}

// OnStart implements enclave.Trusted: volatile state is wiped on every
// (re)start, which is what makes rollback attacks yield only an empty cache.
func (t *Trusted) OnStart(sv *enclave.Services) {
	t.sv = sv
	t.epcReported = 0 // a restart wiped trusted memory
	t.core.Reset()
	t.counters.Reset()
}

// Provision implements enclave.Trusted.
func (t *Trusted) Provision(secrets map[string][]byte) error {
	if key, ok := secrets[tcounter.SecretName]; ok {
		t.counters.SetKey(key)
	} else {
		return errors.New("troxy: missing counter key")
	}
	return t.core.ProvisionSecrets(secrets)
}

// result returns the writer the ecall in progress encodes its result into.
func (t *Trusted) result() *wire.Writer {
	t.res = wire.GetWriter()
	return t.res
}

// actions encodes acts as the ecall's result.
func (t *Trusted) actions(acts *Actions) []byte {
	w := t.result()
	encodeActions(w, acts)
	return w.Bytes()
}

// ECalls implements enclave.Trusted: the Troxy's entry points and the
// counter subsystem's.
func (t *Trusted) ECalls() map[string]func([]byte) ([]byte, error) {
	table := t.troxyECalls()
	for name, fn := range tcounter.ECallHandlers(t.counters) {
		table[name] = fn
	}
	if len(table) != 14 {
		panic(fmt.Sprintf("troxy: enclave interface has %d entry points, want 14", len(table)))
	}
	return t.accounted(table)
}

// troxyECalls is the Troxy's half of the interface, which is all a binding
// without an enclave calls. Handlers decode their argument by view: the
// boundary's copy-in belongs to the call, and whatever the Core keeps of it
// the Core copies. A handler's result is valid until the next call.
func (t *Trusted) troxyECalls() map[string]func([]byte) ([]byte, error) {
	return map[string]func([]byte) ([]byte, error){
		ECallAccept: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			connID := r.U64()
			nodeID := msg.NodeID(int32(r.U32()))
			if err := r.Finish(); err != nil {
				return nil, err
			}
			t.core.AcceptConn(connID, nodeID)
			return nil, nil
		},
		ECallClose: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			connID := r.U64()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			t.core.CloseConn(connID)
			return nil, nil
		},
		ECallClientData: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			now := time.Duration(r.I64())
			connID := r.U64()
			from := msg.NodeID(int32(r.U32()))
			payload := r.Bytes32()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			acts, err := t.core.HandleClientData(now, connID, from, payload)
			if err != nil {
				return nil, err
			}
			return t.actions(&acts), nil
		},
		ECallAuthReply: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			read := r.Bool()
			fresh := r.Bool()
			var opHash msg.Digest
			copy(opHash[:], r.FixedBytes(len(opHash)))
			var rep msg.OrderedReply
			if err := rep.UnmarshalWire(r); err != nil {
				return nil, err
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			if err := t.core.AuthenticateReply(&rep, read, fresh, opHash, t.tag[:]); err != nil {
				return nil, err
			}
			w := t.result()
			w.Bytes32(rep.TroxyTag)
			return w.Bytes(), nil
		},
		ECallHandleReply: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			now := time.Duration(r.I64())
			var rep msg.OrderedReply
			if err := rep.UnmarshalWire(r); err != nil {
				return nil, err
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			acts, err := t.core.HandleReply(now, &rep)
			if err != nil {
				return nil, err
			}
			return t.actions(&acts), nil
		},
		ECallAuthSpecReply: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			var sr msg.SpecReply
			if err := sr.UnmarshalWire(r); err != nil {
				return nil, err
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			if err := t.core.AuthenticateSpecReply(&sr); err != nil {
				return nil, err
			}
			w := t.result()
			w.Bytes32(sr.TroxyTag)
			return w.Bytes(), nil
		},
		ECallSpecReply: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			now := time.Duration(r.I64())
			var sr msg.SpecReply
			if err := sr.UnmarshalWire(r); err != nil {
				return nil, err
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			acts, err := t.core.HandleSpecReply(now, &sr)
			if err != nil {
				return nil, err
			}
			return t.actions(&acts), nil
		},
		ECallRetract: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			client := r.U64()
			clientSeq := r.U64()
			slotSeq := r.U64()
			view := r.U64()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			acts, err := t.core.HandleRetract(client, clientSeq, slotSeq, view)
			if err != nil {
				return nil, err
			}
			return t.actions(&acts), nil
		},
		ECallCacheQuery: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			var q msg.CacheQuery
			if err := q.UnmarshalWire(r); err != nil {
				return nil, err
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			acts, err := t.core.HandleCacheQuery(&q)
			if err != nil {
				return nil, err
			}
			return t.actions(&acts), nil
		},
		ECallCacheReply: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			now := time.Duration(r.I64())
			var rep msg.CacheReply
			if err := rep.UnmarshalWire(r); err != nil {
				return nil, err
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			acts, err := t.core.HandleCacheReply(now, &rep)
			if err != nil {
				return nil, err
			}
			return t.actions(&acts), nil
		},
		ECallTick: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			now := time.Duration(r.I64())
			if err := r.Finish(); err != nil {
				return nil, err
			}
			acts := t.core.Tick(now)
			return t.actions(&acts), nil
		},
		ECallStats: func([]byte) ([]byte, error) {
			return encodeStats(t.core.Stats()), nil
		},
	}
}

// accounted wraps every handler of table for the crossing: the previous
// call's result is released first (its caller has copied it out), and the
// fast-read cache's trusted memory is accounted against the EPC budget after
// the handler — the prototype keeps its footprint small precisely because
// EPC overflow means paging (Section V-A).
func (t *Trusted) accounted(table map[string]func([]byte) ([]byte, error)) map[string]func([]byte) ([]byte, error) {
	for name, fn := range table {
		inner := fn
		table[name] = func(arg []byte) ([]byte, error) {
			wire.PutWriter(t.res)
			t.res = nil
			out, err := inner(arg)
			t.syncEPC()
			return out, err
		}
	}
	return table
}

// syncEPC reports the cache's current footprint to the enclave's memory
// accounting as an allocation delta.
func (t *Trusted) syncEPC() {
	if t.sv == nil {
		return
	}
	used := t.core.cache.Stats().UsedBytes
	switch {
	case used > t.epcReported:
		if err := t.sv.Alloc(used - t.epcReported); err == nil {
			t.epcReported = used
		}
	case used < t.epcReported:
		t.sv.Free(t.epcReported - used)
		t.epcReported = used
	}
}

// Actions and Stats codecs (boundary serialization).

func encodeActions(w *wire.Writer, a *Actions) {
	w.U32(uint32(len(a.Client)))
	for _, cr := range a.Client {
		// A record crosses as its destination followed by the encoding of the
		// ChannelData it leaves in, which decodeActions hands the host as its
		// Body: the copy-out is the record's one copy on its way out.
		w.U32(uint32(cr.Node))
		(&msg.ChannelData{ConnID: cr.ConnID, Payload: cr.Frame}).MarshalWire(w)
	}
	w.U32(uint32(len(a.Submits)))
	for i := range a.Submits {
		// The digest the vote was registered under crosses with the request
		// (computed here for a retransmission, which registers nothing), so
		// the host does not hash the operation a second time.
		a.Submits[i].MarshalWire(w)
		d := a.Submits[i].Digest()
		w.Raw(d[:])
	}
	w.U32(uint32(len(a.Queries)))
	for _, pm := range a.Queries {
		// A cache message crosses as its destination, its kind and its
		// encoding, which decodeActions hands the host as its Body.
		w.U32(uint32(pm.To))
		w.U8(uint8(pm.Kind))
		w.Raw(pm.Body)
	}
}

// decodeActions decodes by view: frames, bodies, operations and tags alias b,
// which on the host side is the binding's copy-out and belongs to the caller.
// A client record's Body is the span of its ChannelData encoding, its Frame
// inside, and a cache message's Body the span of its CacheQuery or CacheReply
// encoding, decoded here only to find where it ends. A submit arrives with its digest: b is this replica's own
// trusted subsystem speaking, and a wrong digest would only get this
// replica's proposals rejected — every other replica computes its own.
func decodeActions(b []byte) (Actions, error) {
	var a Actions
	r := wire.NewReader(b)
	nc := r.SliceLen()
	if nc > 0 {
		a.Client = make([]ClientRecord, 0, min(nc, 64))
	}
	for i := 0; i < nc; i++ {
		node := msg.NodeID(int32(r.U32()))
		from := r.Offset()
		var cd msg.ChannelData
		if err := cd.UnmarshalWire(r); err != nil {
			return a, err
		}
		a.Client = append(a.Client, ClientRecord{ConnID: cd.ConnID, Node: node, Frame: cd.Payload, Body: r.Span(from)})
	}
	ns := r.SliceLen()
	if ns > 0 {
		a.Submits = make([]msg.OrderRequest, 0, min(ns, 64))
	}
	for i := 0; i < ns; i++ {
		var req msg.OrderRequest
		if err := req.UnmarshalWire(r); err != nil {
			return a, err
		}
		var d msg.Digest
		copy(d[:], r.FixedBytes(len(d))) // a short read fails the reader, and Finish below
		req.SetDigest(d)
		a.Submits = append(a.Submits, req)
	}
	nq := r.SliceLen()
	if nq > 0 {
		a.Queries = make([]PeerCacheMsg, 0, min(nq, 64))
	}
	for i := 0; i < nq; i++ {
		to, kind := msg.NodeID(int32(r.U32())), msg.Kind(r.U8())
		from := r.Offset()
		var err error
		switch kind {
		case msg.KindCacheQuery:
			var q msg.CacheQuery
			err = q.UnmarshalWire(r)
		case msg.KindCacheReply:
			var rep msg.CacheReply
			err = rep.UnmarshalWire(r)
		default:
			err = fmt.Errorf("troxy: bad peer message kind %d", kind)
		}
		if err != nil {
			return a, err
		}
		a.Queries = append(a.Queries, PeerCacheMsg{To: to, Kind: kind, Body: r.Span(from)})
	}
	if err := r.Finish(); err != nil {
		return a, err
	}
	return a, nil
}

// wireFields is the one table of Stats' wire format: the counters in the
// order they cross the ECallStats boundary. encodeStats and decodeStats both
// walk it. The two cache gauges are not uint64 in the struct, so they travel
// through entries/usedBytes and the callers convert at the edges.
func (s *Stats) wireFields(entries, usedBytes *uint64) []*uint64 {
	return []*uint64{
		&s.Handshakes, &s.Requests, &s.Reads, &s.Writes,
		&s.FastReadOK, &s.FastReadFell, &s.CacheMisses, &s.VotesCompleted,
		&s.BadReplies, &s.BadQueries, &s.ModeSwitches, &s.StaleFreshRead,
		&s.SpecAnswered, &s.SpecConfirmed, &s.SpecRetracted, &s.SpecMismatches,
		&s.Cache.Hits, &s.Cache.Misses, &s.Cache.Invalidations, &s.Cache.Evictions,
		entries, usedBytes,
	}
}

func encodeStats(s Stats) []byte {
	entries, usedBytes := uint64(s.Cache.Entries), uint64(s.Cache.UsedBytes)
	fields := s.wireFields(&entries, &usedBytes)
	w := wire.NewWriter(8 * len(fields))
	for _, f := range fields {
		w.U64(*f)
	}
	return w.Bytes()
}

func decodeStats(b []byte) (Stats, error) {
	var s Stats
	var entries, usedBytes uint64
	r := wire.NewReader(b)
	for _, f := range s.wireFields(&entries, &usedBytes) {
		*f = r.U64()
	}
	if err := r.Finish(); err != nil {
		return Stats{}, err
	}
	s.Cache.Entries, s.Cache.UsedBytes = int(entries), int64(usedBytes)
	return s, nil
}
