// Package standalone implements the unreplicated service used as the
// latency reference in the HTTP experiment (the "Jetty" configuration of
// Fig. 11): a single node terminating secure channels and executing the
// application directly, with no agreement protocol, no voter and no cache.
package standalone

import (
	"crypto/ed25519"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/httpfront"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
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

type session struct {
	connID  uint64
	nodeID  msg.NodeID
	sc      *securechannel.Session
	httpBuf []byte
}

// Server is the standalone service node.
type Server struct {
	cfg      Config
	identity ed25519.PrivateKey
	sessions map[uint64]*session
	executed uint64
}

var _ node.Handler = (*Server)(nil)

// New creates a standalone server.
func New(cfg Config) *Server {
	return &Server{
		cfg:      cfg,
		identity: ed25519.NewKeyFromSeed(cfg.IdentitySeed),
		sessions: make(map[uint64]*session),
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
	sess, ok := s.sessions[cd.ConnID]
	if !ok {
		sess = &session{connID: cd.ConnID, nodeID: e.From}
		s.sessions[cd.ConnID] = sess
	}
	sess.nodeID = e.From

	if securechannel.IsHandshakeFrame(cd.Payload) {
		sc, hello, err := securechannel.ServerHandshake(s.identity, cd.Payload, env.Rand())
		if err != nil {
			return
		}
		sess.sc = sc
		sess.httpBuf = nil
		s.reply(env, sess, hello)
		return
	}
	if !sess.sc.Established() {
		return
	}
	// Plain or coalesced record: one AEAD pass authenticates every sub-frame
	// before any of them execute.
	frames, err := sess.sc.OpenFrames(nil, cd.Payload)
	if err != nil {
		return
	}
	total := 0
	for f := range frames.All() {
		total += len(f)
	}
	env.Charge(node.ProfileJava, node.ChargeAEAD, total)

	if s.cfg.HTTP {
		for plaintext := range frames.All() {
			sess.httpBuf = append(sess.httpBuf, plaintext...)
		}
		for {
			op, consumed, err := httpfront.ExtractRequest(sess.httpBuf)
			if err != nil || op == nil {
				return
			}
			sess.httpBuf = sess.httpBuf[consumed:]
			s.execute(env, sess, 0, op, true)
		}
	}

	for plaintext := range frames.All() {
		frame, err := msg.DecodeChannelRequest(plaintext)
		if err != nil {
			return
		}
		s.execute(env, sess, frame.Seq, frame.Op, false)
	}
}

func (s *Server) execute(env node.Env, sess *session, seq uint64, op []byte, http bool) {
	result := s.cfg.App.Execute(op)
	env.Charge(node.ProfileJava, node.ChargeExec, len(op)+len(result))
	s.executed++

	plaintext := result
	if !http {
		plaintext = msg.EncodeChannelReply(&msg.ChannelReply{
			Seq:    seq,
			Status: msg.StatusOK,
			Result: result,
		})
	}
	// The record is sealed straight into the body of the envelope it leaves in.
	body, err := sess.sc.AppendSeal(msg.ChannelDataBody(sess.connID, securechannel.Overhead+len(plaintext)), plaintext)
	if err != nil {
		return
	}
	env.Charge(node.ProfileJava, node.ChargeAEAD, len(plaintext))
	env.Send(msg.ChannelDataEnvelope(s.cfg.Self, sess.nodeID, body))
}

func (s *Server) reply(env node.Env, sess *session, frame []byte) {
	env.Send(msg.SealChannelData(s.cfg.Self, sess.nodeID, sess.connID, frame))
}
