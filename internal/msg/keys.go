package msg

import (
	"encoding/binary"

	"github.com/troxy-bft/troxy/internal/wire"
)

// Keys is a list of state-part keys in its wire form — a uint32 count and
// that many length-prefixed strings — which is how an OrderedReply carries
// the keys its request touched. A reply is decoded eight times on its way
// from the executor to the voter; keeping the list encoded means none of
// those decodes builds a slice of strings. A decoded Keys is a view of the
// buffer it was decoded from, like every other byte field: whoever stores it
// copies it. The empty list has length zero.
type Keys []byte

// AppendKeys encodes keys into dst's storage (dst[:0] onward, growing it as
// append does) and returns the list.
func AppendKeys(dst []byte, keys []string) Keys {
	dst = dst[:0]
	if len(keys) == 0 {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = wire.AppendString(dst, k)
	}
	return dst
}

// KeysOf returns the list of the given keys in a buffer of its own.
func KeysOf(keys ...string) Keys { return AppendKeys(nil, keys) }

// Len returns the number of keys the list announces.
func (k Keys) Len() int {
	if len(k) < 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(k))
}

// KeyIter walks a Keys list without allocating.
type KeyIter struct {
	rest []byte
	left int
}

// Iter returns an iterator over the list:
//
//	for it := keys.Iter(); ; {
//		key, ok := it.Next()
//		if !ok { break }
//		…
//	}
func (k Keys) Iter() KeyIter {
	if len(k) < 4 {
		return KeyIter{}
	}
	return KeyIter{rest: k[4:], left: k.Len()}
}

// Next returns the next key as a view of the list. A list that is not what
// AppendKeys or a decoder produced simply ends where it stops making sense.
//
//troxy:hotpath
func (it *KeyIter) Next() ([]byte, bool) {
	if it.left == 0 || len(it.rest) < 4 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(it.rest))
	if n > len(it.rest)-4 {
		it.left = 0
		return nil, false
	}
	key := it.rest[4 : 4+n : 4+n]
	it.rest = it.rest[4+n:]
	it.left--
	return key, true
}

// Strings returns the keys as strings (tests and diagnostics; the request
// path iterates).
func (k Keys) Strings() []string {
	var out []string
	for it := k.Iter(); ; {
		key, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, string(key))
	}
}

// marshal appends the list's wire form.
//
//troxy:hotpath
func (k Keys) marshal(w *wire.Writer) {
	if len(k) == 0 {
		w.U32(0)
		return
	}
	w.Raw(k)
}

// readKeys decodes a list by walking it: the result is the walked bytes.
func readKeys(r *wire.Reader) Keys {
	start := r.Offset()
	n := r.SliceLen()
	for i := 0; i < n && r.Err() == nil; i++ {
		r.Bytes32()
	}
	if n == 0 {
		return nil
	}
	return r.Span(start)
}
