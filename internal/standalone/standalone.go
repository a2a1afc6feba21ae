// Package standalone implements the unreplicated service used as the
// latency reference in the HTTP experiment (the "Jetty" configuration of
// Fig. 11): a single node terminating secure channels and executing the
// application directly, with no agreement protocol, no voter and no cache.
package standalone

import (
	"crypto/ed25519"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/troxy"
)

// Config parameterizes the standalone server.
type Config struct {
	// Self is the server's node ID.
	Self msg.NodeID

	// IdentitySeed is the Ed25519 seed of the TLS identity.
	IdentitySeed []byte

	// App is the application served.
	App app.Application

	// HTTP switches the client protocol to HTTP/1.1 byte streams.
	HTTP bool
}

// Server is the standalone service node.
type Server struct {
	cfg      Config
	channels *troxy.Channels
	executed uint64
}

var _ node.Handler = (*Server)(nil)

// New creates a standalone server.
func New(cfg Config) *Server {
	return &Server{
		cfg:      cfg,
		channels: troxy.NewChannels(ed25519.NewKeyFromSeed(cfg.IdentitySeed), cfg.HTTP),
	}
}

// Executed returns the number of operations served.
func (s *Server) Executed() uint64 { return s.executed }

// OnStart implements node.Handler.
func (s *Server) OnStart(node.Env) {}

// OnTimer implements node.Handler.
func (s *Server) OnTimer(node.Env, node.TimerKey) {}

// OnEnvelope implements node.Handler.
func (s *Server) OnEnvelope(env node.Env, e *msg.Envelope) {
	cd, err := e.OpenChannelData()
	if err != nil {
		return
	}
	// The record's AEAD open is charged before its operations run; a frame
	// the channel refuses is dropped, with no one to report it to.
	var ops []msg.ChannelRequest
	hello, opened, _ := s.channels.Receive(cd.ConnID, e.From, cd.Payload, env.Rand(), func(client, seq uint64, op []byte, _ bool) {
		ops = append(ops, msg.ChannelRequest{Seq: seq, Op: op})
	})
	if hello != nil {
		env.Send(msg.SealChannelData(s.cfg.Self, e.From, cd.ConnID, hello))
	}
	if opened < 0 {
		return
	}
	env.Charge(node.ProfileJava, node.ChargeAEAD, opened)
	for _, req := range ops {
		s.execute(env, cd.ConnID, req.Seq, req.Op)
	}
}

func (s *Server) execute(env node.Env, connID, seq uint64, op []byte) {
	result := s.cfg.App.Execute(op)
	env.Charge(node.ProfileJava, node.ChargeExec, len(op)+len(result))
	s.executed++
	Reply(env, s.channels, s.cfg.Self, s.cfg.HTTP, connID, seq, result)
}

// replyHead is the encoded length of a ChannelReply before its Result:
// Seq, Status and Result's length.
const replyHead = 8 + 1 + 4

// Reply answers request seq on connID with result over ch, from self: the
// reply path of both Fig. 11 front ends, this server and Prophecy's
// middlebox. The record is sealed straight into the body of the envelope it
// leaves in, and its AEAD seal is charged.
func Reply(env node.Env, ch *troxy.Channels, self msg.NodeID, http bool, connID, seq uint64, result []byte) {
	n := len(result)
	if !http {
		n += replyHead
	}
	body, to, ok := ch.Seal(msg.ChannelDataBody(connID, securechannel.Overhead+n), connID, seq, msg.StatusOK, result)
	if !ok {
		return
	}
	env.Charge(node.ProfileJava, node.ChargeAEAD, n)
	env.Send(&msg.Envelope{From: self, To: to, Kind: msg.KindChannelData, Body: body})
}
