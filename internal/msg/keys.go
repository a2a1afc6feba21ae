package msg

import (
	"encoding/binary"
	"iter"

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

// Len returns the number of keys the list announces.
func (k Keys) Len() int {
	if len(k) < 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(k))
}

// All iterates over the keys, each a view of the list, without allocating:
//
//	for key := range keys.All() { … }
//
// A list that is not what AppendKeys or a decoder produced simply ends where
// it stops making sense.
func (k Keys) All() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		if len(k) < 4 {
			return
		}
		rest := k[4:]
		for left := k.Len(); left > 0 && len(rest) >= 4; left-- {
			n := int(binary.LittleEndian.Uint32(rest))
			if n > len(rest)-4 || !yield(rest[4:4+n:4+n]) {
				return
			}
			rest = rest[4+n:]
		}
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
