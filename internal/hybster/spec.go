package hybster

import (
	"sort"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
)

// Speculative crash-commit fast path (tunable commit levels).
//
// A request flagged msg.FlagFastCommit opts into the crash-tolerant tier: the
// client accepts an answer backed by f+1 PREPARE-round counter certificates
// instead of f+1 durable execution replies. To produce that answer without
// touching the durable application state, each replica runs the contiguous
// *prepared* prefix of its log — entries holding a verified PREPARE but not
// necessarily a commit quorum — against the shadow, a copy-on-write fork of
// the durable application (app.Forker; Config.Speculate turns it on), and
// emits a SpecReply per fast-flagged request, carrying the certificate it
// already holds for the batch: the leader's own PREPARE certificate, or the
// follower's COMMIT certificate minted when it accepted the PREPARE. Both
// bind (view, seq, batchDigest) through the trusted counter, so f+1 of them
// prove f+1 replicas adopted this batch at this slot — a crash-commit: it
// survives any combination of crashes (the quorum intersects every later
// view-change quorum in at least one replica), but a Byzantine replica
// inside the intersection can still make the view change drop it.
//
// When that happens — or whenever the speculated prefix stops matching the
// durable one — the shadow is rolled back: it is dropped and the durable
// application forked again (the durable prefix is, by definition, the
// certified anchor; a fork copies no key or value, so a large state does not
// stall the view-change handler), the speculative client table is rebuilt
// from the durable one, and every outstanding speculation is retracted so the
// origin's Troxy can tell its client the fast answer was withdrawn before the
// durable repair arrives. Rollback triggers are view installation (the new
// view may drop or reorder prepared entries), state-transfer installs (the
// shadow's history is unrelated to the jumped-to state), and execution-time
// divergence (the durable batch at a slot differs from the one speculated
// there).
//
// The shadow never feeds back into agreement: durable execution, checkpoints,
// and state transfer read Config.App only, and a fork's writes are invisible
// to the application it was forked from, so a speculation bug can produce a
// wrong *fast* answer (later retracted and repaired) but never a wrong
// durable one.

// SpecOutbound is an optional extension of Outbound. An Outbound that also
// implements it receives the speculative fast-path callbacks; one that does
// not simply never sees them (speculation still maintains the shadow so the
// divergence checks stay armed).
type SpecOutbound interface {
	// Speculated reports that the prepared-but-uncommitted request req was
	// executed against the shadow at agreement slot seq in view, producing
	// result. cert is this replica's PREPARE-round counter certificate for
	// the enclosing batch (prepare cert if this replica leads view, its own
	// commit cert otherwise); batchDigest is the digest of the enclosing
	// batch that cert binds. The receiver forwards both in a msg.SpecReply
	// to the request's origin.
	Speculated(env node.Env, view, seq uint64, batchDigest msg.Digest, req *msg.OrderRequest, result []byte, cert msg.CounterCert)

	// Retracted reports that a speculation previously reported via
	// Speculated was withdrawn: a view change, state transfer, or divergence
	// rolled the shadow back before the durable tier settled the request.
	// It is only invoked for requests this replica originated — every
	// correct replica computes the same durable history, so the origin
	// detects its own losses without a retraction protocol message. The
	// durable execution (or reply-cache replay) of the retried request
	// follows and repairs the client.
	Retracted(env node.Env, seq uint64, req *msg.OrderRequest, view uint64)
}

// specRecord is one outstanding speculation: a fast-flagged request answered
// from the shadow and not yet settled by durable execution.
type specRecord struct {
	seq    uint64
	view   uint64
	result []byte
	req    *msg.OrderRequest
}

// advanceSpec runs the contiguous prepared prefix above the speculation
// frontier through the shadow. Called after every point that can extend the
// prefix (PREPARE acceptance, leader proposal, rollback re-anchoring) and
// *before* the corresponding durable commit attempt, so the fast answer for
// an entry is emitted no later than its durable one.
func (c *Core) advanceSpec(env node.Env) {
	if c.shadow == nil || c.inVC {
		return
	}
	for {
		e, ok := c.log[c.specExec+1]
		if !ok || !e.hasPrep || !e.hasSpecCert {
			return
		}
		c.speculate(env, e)
	}
}

// speculate executes one prepared entry against the shadow and reports every
// fast-flagged request in it. The shadow client table mirrors the durable
// table's dedup rule so the speculated history and the durable history make
// identical skip decisions as long as they run the same batches in the same
// order — any other outcome is caught as divergence at durable execution
// time.
func (c *Core) speculate(env node.Env, e *entry) {
	c.specExec = e.seq
	c.specLog[e.seq] = e.digest
	so, hasOut := c.out.(SpecOutbound)
	for i := range e.batch.Reqs {
		req := &e.batch.Reqs[i]
		if req.Origin == msg.NoNode && len(req.Op) == 0 {
			continue // gap-filling no-op from a view change
		}
		if last, ok := c.specClients[req.Client]; ok && req.ClientSeq <= last {
			continue // duplicate under the speculated history
		}
		result := c.shadow.Execute(req.Op)
		env.Charge(c.cfg.Profile, node.ChargeExec, len(req.Op)+len(result))
		c.specClients[req.Client] = req.ClientSeq
		if !req.FastCommit() || req.Origin == msg.NoNode {
			continue
		}
		c.metrics.Speculated++
		c.specOut[idOf(req)] = &specRecord{
			seq: e.seq, view: e.view, result: result, req: req,
		}
		if hasOut {
			so.Speculated(env, e.view, e.seq, e.digest, req, result, e.specCert)
		}
	}
}

// VerifySpecReply checks the counter certificate carried by a SpecReply
// received from a peer: the certificate must have been minted by the claimed
// executor, on the ordering-counter lane for (View, Seq), with the counter
// value Seq, over the PREPARE binding if the executor leads View (the leader
// vouches with its prepare cert) or the COMMIT binding otherwise (a follower
// vouches with the commit cert it minted when accepting the PREPARE). A
// failure is counted and attributed to from, exactly like any other rejected
// certificate.
func (c *Core) VerifySpecReply(env node.Env, from msg.NodeID, sr *msg.SpecReply) bool {
	if sr.Cert.Replica != sr.Executor ||
		sr.Cert.Counter != c.laneCounter(sr.View, sr.Seq) ||
		sr.Cert.Value != sr.Seq {
		c.rejectCert(from)
		return false
	}
	var bound msg.Digest
	if c.Leader(sr.View) == sr.Executor {
		bound = prepareDigest(sr.View, sr.Seq, sr.BatchDigest)
	} else {
		bound = commitDigest(sr.View, sr.Seq, sr.BatchDigest)
	}
	if !c.cfg.Authority.Verify(sr.Cert, bound) {
		c.rejectCert(from)
		return false
	}
	c.chargeCounterOp(env)
	return true
}

// settleSpec resolves the outstanding speculation for a durably settled
// request, if any. The durable reply (already flowing via Committed) is what
// confirms or repairs the client; the core only needs to stop tracking the
// speculation so a later rollback does not retract an already-settled answer.
func (c *Core) settleSpec(req *msg.OrderRequest) {
	k := idOf(req)
	if _, ok := c.specOut[k]; ok {
		delete(c.specOut, k)
		c.metrics.SpecConfirmed++
	}
}

// rollbackSpec rewinds the shadow onto the durable prefix: retract every
// outstanding speculation, replace the shadow with a new fork of the durable
// application (the certified anchor — everything at or below lastExec carries
// a commit quorum or a stable checkpoint), rebuild the speculative client
// table from the durable one, and re-advance over whatever prepared prefix
// survived. Retraction is conservative: a speculation whose batch survives
// the view change intact is retracted anyway and the client repaired by the
// durable reply — cheap, and it keeps the retraction rule independent of
// *why* the prefix changed.
func (c *Core) rollbackSpec(env node.Env) {
	if c.shadow == nil {
		return
	}
	c.metrics.SpecRollbacks++
	so, hasOut := c.out.(SpecOutbound)
	keys := make([]requestID, 0, len(c.specOut))
	for k := range c.specOut {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].client != keys[j].client {
			return keys[i].client < keys[j].client
		}
		return keys[i].clientSeq < keys[j].clientSeq
	})
	for _, k := range keys {
		rec := c.specOut[k]
		delete(c.specOut, k)
		c.metrics.SpecRetractions++
		if hasOut && rec.req.Origin == c.cfg.Self {
			so.Retracted(env, rec.seq, rec.req, rec.view)
		}
	}
	c.shadow = c.cfg.App.(app.Forker).Fork()
	c.specExec = c.lastExec
	c.specLog = make(map[uint64]msg.Digest)
	c.specClients = make(map[uint64]uint64, len(c.clients))
	for id, rec := range c.clients {
		c.specClients[id] = rec.lastSeq
	}
	c.advanceSpec(env)
}
