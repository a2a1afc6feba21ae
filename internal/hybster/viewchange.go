package hybster

import (
	"bytes"
	"slices"
	"sort"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// timerViewChange escalates to the next view if an initiated view change
// does not complete in time. The key's ID is the pending view number.
const timerViewChange = "hybster/viewchange"

// startViewChange certifies and broadcasts this replica's VIEW-CHANGE for
// newView. The certificate value equals the view number, so the trusted
// counter enforces at most one view-change statement per view and replica.
func (c *Core) startViewChange(env node.Env, newView uint64) {
	if newView <= c.view || newView <= c.vcVoted {
		return
	}
	c.inVC = true
	c.metrics.ViewChanges++
	// Requests sitting in the batch accumulator have no PREPARE yet, so no
	// view change will carry them; requeue them for the new view's leader.
	c.flushBatchBuf(env)

	vc := &ViewChange{
		Replica:      c.cfg.Self,
		NewView:      newView,
		StableSeq:    c.stableSeq,
		StableDigest: c.stableDigest,
		Prepared:     c.preparedAbove(c.stableSeq),
	}
	digest := vc.CertDigest()
	cert, err := c.cfg.Authority.Certify(tcounter.ViewChangeCounter, newView, digest)
	c.chargeCounterOp(env)
	if err != nil {
		env.Logf("hybster: certify view change %d: %v", newView, err)
		return
	}
	vc.Cert = cert
	c.vcVoted = newView

	c.broadcast(env, vc)
	c.recordViewChange(env, vc)
	env.SetTimer(c.cfg.ViewChangeTimeout, node.TimerKey{Kind: timerViewChange, ID: newView})
}

// preparedAbove collects this replica's prepared entries above seq, in
// sequence order.
func (c *Core) preparedAbove(seq uint64) []PreparedEntry {
	var seqs []uint64
	for s, e := range c.log {
		if s > seq && e.hasPrep {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]PreparedEntry, 0, len(seqs))
	for _, s := range seqs {
		e := c.log[s]
		out = append(out, PreparedEntry{
			View:        e.view,
			Seq:         s,
			Batch:       *e.batch,
			PrepareCert: e.prepCert,
		})
	}
	return out
}

// verifyViewChange checks a VIEW-CHANGE message's certificate and the
// prepare certificates of every entry it carries.
func (c *Core) verifyViewChange(env node.Env, vc *ViewChange) bool {
	digest := vc.CertDigest()
	if vc.Cert.Replica != vc.Replica ||
		vc.Cert.Counter != tcounter.ViewChangeCounter ||
		vc.Cert.Value != vc.NewView ||
		!c.cfg.Authority.Verify(vc.Cert, digest) {
		return false
	}
	c.chargeCounterOp(env)
	for i := range vc.Prepared {
		pe := &vc.Prepared[i]
		leader := c.Leader(pe.View)
		if pe.PrepareCert.Replica != leader ||
			pe.PrepareCert.Counter != c.laneCounter(pe.View, pe.Seq) ||
			pe.PrepareCert.Value != pe.Seq ||
			!c.cfg.Authority.Verify(pe.PrepareCert, prepareDigest(pe.View, pe.Seq, pe.Batch.Digest())) {
			return false
		}
		c.chargeCounterOp(env)
	}
	return true
}

// OnViewChange handles a peer's VIEW-CHANGE.
func (c *Core) OnViewChange(env node.Env, from msg.NodeID, vc *ViewChange) {
	if vc.Replica != from || vc.NewView <= c.view {
		return
	}
	if !c.verifyViewChange(env, vc) {
		c.rejectCert(from)
		return
	}
	c.recordViewChange(env, vc)
	// A certified view-change from any replica is evidence enough to join:
	// with 2f+1 replicas, waiting for f+1 independent suspicions could
	// stall forever because only the replica that owns the pending request
	// watches its progress.
	if vc.NewView > c.vcVoted {
		c.startViewChange(env, vc.NewView)
	}
}

func (c *Core) recordViewChange(env node.Env, vc *ViewChange) {
	votes, ok := c.vcs[vc.NewView]
	if !ok {
		votes = make(map[msg.NodeID]*ViewChange)
		c.vcs[vc.NewView] = votes
	}
	votes[vc.Replica] = vc
	c.maybeInstall(env, vc.NewView)
}

// maybeInstall creates and broadcasts the NEW-VIEW once this replica is the
// designated leader of newView and holds f+1 view-change messages.
func (c *Core) maybeInstall(env node.Env, newView uint64) {
	if c.Leader(newView) != c.cfg.Self || newView <= c.view {
		return
	}
	votes := c.vcs[newView]
	if len(votes) < c.quorum() {
		return
	}
	ids := make([]msg.NodeID, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	nv := &NewView{Leader: c.cfg.Self, View: newView}
	for _, id := range ids[:c.quorum()] {
		nv.ViewChanges = append(nv.ViewChanges, *votes[id])
	}
	digest := nv.CertDigest()
	cert, err := c.cfg.Authority.Certify(tcounter.NewViewCounter, newView, digest)
	c.chargeCounterOp(env)
	if err != nil {
		env.Logf("hybster: certify new view %d: %v", newView, err)
		return
	}
	nv.Cert = cert
	c.broadcast(env, nv)
	c.installView(env, nv)
}

// OnNewView handles a NEW-VIEW: the new leader's broadcast, or a relay of it
// (a solicited replica answering NewViewRequest, or a state-transfer server
// attaching it to the prefix). The leader's counter certificate proves
// authorship regardless of who delivered the message, so a relay needs no
// authority of its own; a message that fails verification is blamed on the
// sender (the transport MAC authenticated it), relay or not.
func (c *Core) OnNewView(env node.Env, from msg.NodeID, nv *NewView) {
	if nv.View <= c.view {
		return
	}
	if nv.Leader == c.cfg.Self {
		// A relay of a view this replica once led (and forgot across a
		// crash). Re-entering it as leader would mean re-certifying counter
		// values the pre-crash incarnation already consumed; stay put and let
		// the cluster's escalation move everyone past it.
		return
	}
	if c.Leader(nv.View) != nv.Leader {
		c.rejectCert(from)
		return
	}
	digest := nv.CertDigest()
	if nv.Cert.Replica != nv.Leader ||
		nv.Cert.Counter != tcounter.NewViewCounter ||
		nv.Cert.Value != nv.View ||
		!c.cfg.Authority.Verify(nv.Cert, digest) {
		c.rejectCert(from)
		return
	}
	c.chargeCounterOp(env)
	seen := make(map[msg.NodeID]struct{})
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.NewView != nv.View || !c.verifyViewChange(env, vc) {
			c.rejectCert(from)
			return
		}
		seen[vc.Replica] = struct{}{}
	}
	if len(seen) < c.quorum() {
		c.rejectCert(from)
		return
	}
	c.installView(env, nv)
}

// installView switches to the view described by a verified NEW-VIEW,
// re-proposing (as leader) or expecting re-proposals for (as follower) every
// prepared entry above the maximum stable checkpoint among the view changes.
func (c *Core) installView(env node.Env, nv *NewView) {
	var maxStable uint64
	reproposals := make(map[uint64]PreparedEntry)
	var maxPrepared uint64
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.StableSeq > maxStable {
			maxStable = vc.StableSeq
		}
		for _, pe := range vc.Prepared {
			cur, ok := reproposals[pe.Seq]
			if !ok || pe.View > cur.View {
				reproposals[pe.Seq] = pe
			}
			if pe.Seq > maxPrepared {
				maxPrepared = pe.Seq
			}
		}
	}

	if c.vcVoted < nv.View {
		// Installing a view we never voted a VIEW-CHANGE for means we learned
		// it from evidence (a relayed NEW-VIEW or a state-transfer prefix)
		// rather than joining the change live.
		c.metrics.ViewAdoptions++
	}
	c.view = nv.View
	c.inVC = false
	c.curNewView = nv
	env.CancelTimer(node.TimerKey{Kind: timerViewChange, ID: nv.View})
	// A replica can install a view straight from a NEW-VIEW without having
	// voted; anything still in its accumulator must be re-driven below.
	c.flushBatchBuf(env)

	// Reset per-view ordering state. Entries that were not executed are
	// dropped; the new leader's re-proposals will recreate them.
	startSeq := maxStable + 1
	if c.stableSeq > maxStable {
		// Our own stable checkpoint can postdate the view change's evidence:
		// an adopter installing a relayed NEW-VIEW after a state transfer
		// (its snapshot already covers the change's stable point), or a
		// replica whose latest checkpoint quorum is absent from the carried
		// view changes. Everything at or below a stable checkpoint is
		// settled cluster-wide; anchoring below it would expect re-proposals
		// that already flowed — or, as the new leader, propose fresh batches
		// below our own executed state.
		startSeq = c.stableSeq + 1
	}
	for seq, e := range c.log {
		if !e.executed {
			delete(c.log, seq)
		}
	}
	c.pendingPrepares = make(map[uint64]*msg.Prepare)
	c.pendingCommits = make(map[msg.NodeID]map[uint64]*msg.Commit)
	c.proposed = make(map[msg.Digest]struct{})
	c.resetContinuity(startSeq)
	c.maxAcceptedPrep = 0
	for v := range c.vcs {
		if v <= nv.View {
			delete(c.vcs, v)
		}
	}
	// The new view may drop or reorder prepared entries: rewind the
	// speculation shadow onto the durable prefix and retract outstanding
	// fast answers. Re-proposals below re-speculate through the ordinary
	// accept path.
	c.rollbackSpec(env)

	env.Logf("hybster: installed view %d (stable %d, re-proposals %d)",
		nv.View, maxStable, len(reproposals))

	reproposed := make(map[msg.Digest]struct{}, len(reproposals))
	if c.IsLeader() {
		c.seqNext = startSeq
		for seq := startSeq; seq <= maxPrepared; seq++ {
			if pe, ok := reproposals[seq]; ok {
				batch := pe.Batch
				for i := range batch.Reqs {
					reproposed[batch.Reqs[i].Digest()] = struct{}{}
				}
				c.proposeBatch(env, &batch)
				continue
			}
			// Fill the hole with an empty batch so counter continuity holds.
			c.proposeBatch(env, &msg.Batch{})
		}
	} else {
		seqs := make([]uint64, 0, len(reproposals))
		for seq := range reproposals {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			reqs := reproposals[seq].Batch.Reqs
			for i := range reqs {
				reproposed[reqs[i].Digest()] = struct{}{}
			}
		}
	}

	// Re-drive requests this replica is responsible for: queued ones and
	// locally submitted ones that are not covered by a re-proposal (their
	// Forward may have died with the old leader). Duplicates are filtered
	// by the execution-time client table.
	pending := c.queued
	c.queued = nil
	ids := make([]requestID, 0, len(c.pendingLocal))
	for id := range c.pendingLocal {
		ids = append(ids, id)
	}
	var held []*msg.OrderRequest // in map order until the sort below
	for _, id := range ids {
		held = slices.AppendSeq(held, c.pendingLocal[id].all())
	}
	sort.Slice(held, func(i, j int) bool {
		di, dj := held[i].Digest(), held[j].Digest()
		return bytes.Compare(di[:], dj[:]) < 0
	})
	for _, req := range held {
		if _, ok := reproposed[req.Digest()]; !ok {
			pending = append(pending, req)
		}
	}
	// Sort the whole re-drive set by (Client, ClientSeq): the re-drive order
	// below is protocol-visible (enqueue/Forward order), and this order both
	// is deterministic and preserves per-client FIFO — the execution-time
	// client table drops any request whose ClientSeq is behind that client's
	// latest executed one, so re-driving a client's later request ahead of
	// an earlier one (possible from retries queued during the view change)
	// would silently discard the earlier request. The stable sort falls back
	// to the digest order established above for any tie.
	sort.SliceStable(pending, func(i, j int) bool {
		if pending[i].Client != pending[j].Client {
			return pending[i].Client < pending[j].Client
		}
		return pending[i].ClientSeq < pending[j].ClientSeq
	})
	for _, req := range pending {
		if c.IsLeader() {
			c.enqueue(env, req, req.Digest())
		} else {
			c.out.Send(env, c.Leader(c.view), &msg.Forward{Req: *req})
		}
	}
	if len(c.pendingLocal) > 0 {
		env.SetTimer(c.cfg.ViewChangeTimeout, node.TimerKey{Kind: timerProgress})
	}

	c.replayDeferred(env)
}

// onViewChangeTimer escalates a stalled view change.
func (c *Core) onViewChangeTimer(env node.Env, pendingView uint64) {
	if c.view >= pendingView || !c.inVC {
		return
	}
	env.Logf("hybster: view change to %d stalled, escalating", pendingView)
	c.startViewChange(env, pendingView+1)
}
