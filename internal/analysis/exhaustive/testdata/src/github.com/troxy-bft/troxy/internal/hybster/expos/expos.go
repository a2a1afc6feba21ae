// Package expos must trigger exhaustive: message switches with silent gaps.
package expos

import "github.com/troxy-bft/troxy/internal/msg"

func dispatchKind(k msg.Kind) int {
	switch k { // want "switch over msg.Kind is not exhaustive: missing KindBatch, KindChannelData, KindReplyBatch, KindSpecReply, KindStateChunk, KindStatePrefix"
	case msg.KindPrepare:
		return 1
	case msg.KindCommit:
		return 2
	}
	return 0
}

func singleCase(k msg.Kind) bool {
	switch k { // want "switch over msg.Kind is not exhaustive: missing KindBatch, KindCommit, KindPrepare, KindReplyBatch, KindSpecReply, KindStateChunk, KindStatePrefix"
	case msg.KindChannelData:
		return true
	}
	return false
}

func dispatchType(m msg.Message) uint64 {
	switch m := m.(type) { // want "type switch over msg.Message is not exhaustive: missing \\*msg.Batch, \\*msg.ChannelData, \\*msg.ReplyBatch, \\*msg.SpecReply, \\*msg.StateChunk, \\*msg.StatePrefix"
	case *msg.Prepare:
		return m.Seq
	case *msg.Commit:
		return m.Seq
	}
	return 0
}
