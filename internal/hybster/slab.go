package hybster

import (
	"bytes"

	"github.com/troxy-bft/troxy/internal/msg"
)

// slab is the memory a Core copies what ordering keeps into: the requests it
// is submitted and forwarded, and the batches of the PREPAREs it accepts. It
// carves them out of chunks — request slots from one, operation bytes from
// another — that it allocates and never reuses: a chunk is garbage once
// nothing carved from it is referenced, so the slab has no free list and
// tracks no lifetime, and what it holds past that is the unfilled rest of
// its two current chunks. Every carve is cap-limited, so an append to a kept
// slice reallocates instead of writing into its neighbour.
type slab struct {
	reqs []msg.OrderRequest // the current request chunk's free slots
	ops  []byte             // the current operation chunk's free bytes
}

// A chunk holds slabReqs request slots (96 bytes each) or slabOps bytes of
// operations. A run longer than a quarter of its chunk — a batch of more than
// slabReqs/4 requests, an operation of more than slabOps/4 bytes — gets an
// allocation of its own, as every kept request did before the slab: the tail
// a chunk leaves unused when the next run does not fit is shorter than the
// longest run carved from it, so at most a quarter of the chunk is wasted.
// Four batches of sixteen fill a request chunk; an operation chunk holds
// fifteen 4 KiB writes (write_bigstate's, which thus waste at most one in
// sixteen of its bytes and are not allocated one by one) or five hundred
// 128-byte ones.
const (
	slabReqs = 64
	slabOps  = 64 << 10
)

// take returns n request slots of the slab.
func (s *slab) take(n int) []msg.OrderRequest {
	if n > slabReqs/4 {
		return make([]msg.OrderRequest, n)
	}
	if n > len(s.reqs) {
		s.reqs = make([]msg.OrderRequest, slabReqs)
	}
	r := s.reqs[:n:n]
	s.reqs = s.reqs[n:]
	return r
}

// op returns a copy of op in the slab (nil for no bytes).
func (s *slab) op(op []byte) []byte {
	n := len(op)
	switch {
	case n == 0:
		return nil
	case n > slabOps/4:
		return bytes.Clone(op)[:n:n]
	case n > len(s.ops):
		s.ops = make([]byte, slabOps)
	}
	kept := s.ops[:n:n]
	copy(kept, op)
	s.ops = s.ops[n:]
	return kept
}

// keep returns a copy of req in the slab, digest included, for a holder that
// keeps it by address (the progress watch, the view-change queue): the one
// copy a replica makes of a request it is submitted or forwarded, which is a
// view of memory its lender reuses. (The leader's batch accumulator keeps a
// forwarded request by value, and so only its operation: OnForward.)
func (c *Core) keep(req *msg.OrderRequest) *msg.OrderRequest {
	kept := &c.slab.take(1)[0]
	*kept = *req
	kept.Op = c.slab.op(req.Op)
	return kept
}

// keepBatch returns a copy of b in the slab, digests included, for the log
// entry that accepts it: the one copy a follower makes of a PREPARE's batch.
// A request whose operation this replica holds already (AdoptHeld made it
// one it submitted) shares those bytes instead.
func (c *Core) keepBatch(b *msg.Batch) msg.Batch {
	reqs := c.slab.take(len(b.Reqs))
	copy(reqs, b.Reqs)
	for i := range reqs {
		if !c.holds(&reqs[i]) {
			reqs[i].Op = c.slab.op(reqs[i].Op)
		}
	}
	return msg.Batch{Reqs: reqs}
}
