// Package exneg must stay clean under exhaustive: full coverage, explicit
// defaults, and switches the analyzer must not claim.
package exneg

import "github.com/troxy-bft/troxy/internal/msg"

// allKinds covers the full universe.
func allKinds(k msg.Kind) int {
	switch k {
	case msg.KindChannelData:
		return 1
	case msg.KindPrepare, msg.KindCommit:
		return 2
	case msg.KindBatch:
		return 3
	case msg.KindStateChunk, msg.KindStatePrefix:
		return 4
	case msg.KindSpecReply:
		return 5
	case msg.KindReplyBatch:
		return 6
	}
	return 0
}

// explicitDefault documents the leftovers instead of enumerating them.
func explicitDefault(k msg.Kind) bool {
	switch k {
	case msg.KindPrepare:
		return true
	default:
		return false
	}
}

// allTypes covers every concrete message type.
func allTypes(m msg.Message) int {
	switch m.(type) {
	case *msg.ChannelData:
		return 1
	case *msg.Prepare:
		return 2
	case *msg.Commit:
		return 3
	case *msg.Batch:
		return 4
	case *msg.StateChunk:
		return 5
	case *msg.StatePrefix:
		return 6
	case *msg.SpecReply:
		return 7
	case *msg.ReplyBatch:
		return 8
	case nil:
		return -1
	}
	return 0
}

// typeDefault rejects unknown messages explicitly.
func typeDefault(m msg.Message) uint64 {
	switch m := m.(type) {
	case *msg.Prepare:
		return m.Seq
	default:
		return 0
	}
}

// otherSwitch is over a plain int: not the analyzer's business.
func otherSwitch(n int) bool {
	switch n {
	case 1:
		return true
	}
	return false
}

// otherTypeSwitch is over any: not the analyzer's business either.
func otherTypeSwitch(v any) bool {
	switch v.(type) {
	case string:
		return true
	}
	return false
}
