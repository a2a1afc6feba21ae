// Package msg is a fixture mirror of the real internal/msg surface: a Kind
// discriminator, the Message interface, and a few concrete message types.
package msg

// Kind discriminates message types on the wire.
type Kind uint8

const (
	KindChannelData Kind = iota + 1
	KindPrepare
	KindCommit
	KindBatch
	KindStateChunk
	KindStatePrefix
	KindSpecReply
	KindReplyBatch
)

// Message is one protocol message.
type Message interface {
	Kind() Kind
}

type ChannelData struct{ Payload []byte }

func (*ChannelData) Kind() Kind { return KindChannelData }

type Prepare struct{ Seq uint64 }

func (*Prepare) Kind() Kind { return KindPrepare }

type Commit struct{ Seq uint64 }

func (*Commit) Kind() Kind { return KindCommit }

type Batch struct{ Seqs []uint64 }

func (*Batch) Kind() Kind { return KindBatch }

type StateChunk struct{ Index uint32 }

func (*StateChunk) Kind() Kind { return KindStateChunk }

type StatePrefix struct{ Seq uint64 }

func (*StatePrefix) Kind() Kind { return KindStatePrefix }

type SpecReply struct{ Seq uint64 }

func (*SpecReply) Kind() Kind { return KindSpecReply }

type ReplyBatch struct{ Replies []byte }

func (*ReplyBatch) Kind() Kind { return KindReplyBatch }
