package hybster

import (
	"sort"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// Chunked, streaming state transfer with a certified-prefix handoff.
//
// A replica that agreed on a checkpoint it cannot reach by execution (f+1
// matching CHECKPOINT votes, lastExec below the checkpoint) fetches the
// snapshot from the replicas that voted the digest. The protocol is
// requester-driven:
//
//  1. StateRequest{Seq} (no chunk list) asks for the chunk manifest. The
//     server answers with StateReply{Manifest} — whose digest is exactly the
//     voted checkpoint digest — followed by StatePrefix carrying its
//     in-flight prepared entries above the checkpoint, each with the
//     original leader's counter certificate.
//  2. The requester verifies the manifest against the agreed digest, then
//     pulls chunks in windows: StateRequest{Seq, Chunks} lists missing
//     indices, the server answers each with StateChunk{Seq, Index, Data}.
//     Every chunk is verified against the manifest's per-chunk digest, so
//     nothing the server sends is taken on trust.
//  3. Chunks apply in index order; the head chunks (client table) are
//     decoded once complete, the application chunks stream into the
//     application's chunk sink. Out-of-order chunks buffer in a bounded
//     window of StateChunkWindow chunks — peak extra memory is window ×
//     chunk size regardless of state size.
//  4. A fetch round that goes unanswered (dropped request, dropped reply,
//     crashed or Byzantine server) is retried on a jittered
//     exponential-backoff timer, rotating across the digest voters.
//  5. On completion the sink commits atomically, the client table installs,
//     and the certified prefix is replayed: each entry's certificate is
//     verified exactly as a view change would, then fed through OnPrepare,
//     so the joiner starts voting mid-window instead of waiting out the
//     remainder of the checkpoint interval.
//
// Safety: the manifest digest is the quorum-agreed checkpoint digest, so the
// manifest and (transitively) every chunk carry quorum evidence; a tampered
// chunk is detected by its digest and attributed to the serving peer. Prefix
// entries carry leader counter certificates — the same evidence view changes
// rely on — so a Byzantine server cannot forge ordering statements, only
// withhold them (in which case the joiner catches up through the ordinary
// vote flow).

// Server-side bounds per request, so one StateRequest cannot make a replica
// burst an unbounded reply volume.
const (
	maxChunksPerRequest = 256
	maxPrefixEntries    = 512
)

// stateFetch is the requester-side state machine of one chunked transfer.
type stateFetch struct {
	seq    uint64
	digest msg.Digest
	// rewind marks a divergence recovery: the install may then move
	// lastExec backwards, rolling the replica onto the quorum-agreed state.
	rewind bool

	// peers are the digest voters (sorted, self excluded); peerIdx is the
	// current server, rotated on timeout.
	peers    []msg.NodeID
	peerIdx  int
	attempts int

	manifest      *snapshotManifest
	manifestBytes []byte

	next     uint32            // lowest chunk index not yet applied
	reqHigh  uint32            // exclusive high mark of requested indices
	window   map[uint32][]byte // verified out-of-order chunks above next
	buffered int               // bytes held in window

	headBuf []byte                   // client-table head accumulator
	clients map[uint64]*clientRecord // decoded client table
	sink    app.RestoreSink          // streaming application restore

	prefix     *StatePrefix
	prefixFrom msg.NodeID
}

// requestState starts a chunked state transfer for the stable checkpoint at
// seq, fetching from the peers whose votes matched digest. rewind marks a
// divergence recovery (the install may move lastExec backwards).
func (c *Core) requestState(env node.Env, seq uint64, digest msg.Digest, rewind bool, votes map[msg.NodeID]msg.Digest) {
	if c.fetch != nil && c.fetch.seq >= seq && !rewind {
		return
	}
	peers := make([]msg.NodeID, 0, len(votes))
	for id, d := range votes {
		if id != c.cfg.Self && d == digest {
			peers = append(peers, id)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	if len(peers) == 0 {
		return
	}
	// An older in-progress fetch is simply abandoned: its sink never
	// committed, so the application state is untouched.
	c.fetch = &stateFetch{seq: seq, digest: digest, rewind: rewind, peers: peers}
	c.metrics.StateTransfers++
	c.sendFetchRound(env)
	c.armFetchTimer(env)
}

// cancelFetch abandons the in-progress fetch (already caught up, or the
// stream turned out undecodable). The uncommitted sink leaves the
// application state untouched.
func (c *Core) cancelFetch(env node.Env) {
	c.fetch = nil
	env.CancelTimer(node.TimerKey{Kind: timerFetch})
}

// sendFetchRound sends the current peer whatever the fetch needs next: the
// manifest if we do not hold one, the full missing chunk window otherwise.
func (c *Core) sendFetchRound(env node.Env) {
	f := c.fetch
	if f.manifest == nil {
		c.out.Send(env, f.peers[f.peerIdx], &StateRequest{Seq: f.seq})
		return
	}
	c.requestChunks(env, f.next)
}

// requestChunks asks the current peer for the chunks in [from, next+window)
// that are neither applied nor buffered, and advances the requested high
// mark. Passing f.next re-requests the whole missing window; passing
// f.reqHigh extends it as applied chunks slide it forward.
func (c *Core) requestChunks(env node.Env, from uint32) {
	f := c.fetch
	hi := min(f.next+uint32(c.cfg.StateChunkWindow), f.manifest.nChunks())
	want := make([]uint32, 0, c.cfg.StateChunkWindow)
	for i := max(from, f.next); i < hi; i++ {
		if _, buffered := f.window[i]; buffered {
			continue
		}
		want = append(want, i)
	}
	f.reqHigh = hi
	if len(want) == 0 {
		return
	}
	c.out.Send(env, f.peers[f.peerIdx], &StateRequest{Seq: f.seq, Chunks: want})
}

// armFetchTimer schedules the fetch retry with exponential backoff and
// jitter (full-jitter around the doubled base, so simultaneous fetchers
// spread out; env.Rand is the node-seeded deterministic source).
func (c *Core) armFetchTimer(env node.Env) {
	d := c.cfg.StateFetchTimeout << min(c.fetch.attempts, 5)
	d = d/2 + time.Duration(env.Rand().Int63n(int64(d)))
	env.SetTimer(d, node.TimerKey{Kind: timerFetch})
}

// onFetchTimer fires when a fetch round went unanswered: back off, rotate to
// the next digest voter, and re-request everything still missing.
func (c *Core) onFetchTimer(env node.Env) {
	f := c.fetch
	if f == nil {
		return
	}
	if f.seq <= c.lastExec && !f.rewind {
		c.cancelFetch(env)
		return
	}
	f.attempts++
	c.metrics.StateFetchRetries++
	if len(f.peers) > 1 {
		f.peerIdx = (f.peerIdx + 1) % len(f.peers)
		c.metrics.StateFetchRotations++
	}
	c.sendFetchRound(env)
	c.armFetchTimer(env)
}

// OnStateRequest serves state-transfer data from the stable checkpoint.
// Without a chunk list the reply is the manifest plus the certified prefix
// of in-flight prepared entries; with one, the listed chunks.
func (c *Core) OnStateRequest(env node.Env, from msg.NodeID, req *StateRequest) {
	if req.Seq != c.stableSeq || c.stableChunks == nil {
		return
	}
	cs := c.stableChunks
	if len(req.Chunks) == 0 {
		c.out.Send(env, from, &StateReply{Seq: req.Seq, Manifest: cs.manifestBytes})
		entries := c.preparedAbove(req.Seq)
		if len(entries) > maxPrefixEntries {
			entries = entries[:maxPrefixEntries]
		}
		// Attach the NEW-VIEW that installed our current view (nil in view
		// 0): a fetcher that slept through the view change needs it to adopt
		// the view, or every prefix entry would be skipped as wrong-view and
		// the cluster's live traffic deferred indefinitely.
		c.out.Send(env, from, &StatePrefix{
			Seq: req.Seq, LastExec: c.lastExec, Entries: entries, NewView: c.curNewView,
		})
		return
	}
	served := 0
	for _, idx := range req.Chunks {
		if served >= maxChunksPerRequest {
			break
		}
		data, ok := cs.chunk(idx)
		if !ok {
			continue
		}
		c.out.Send(env, from, &StateChunk{Seq: req.Seq, Index: idx, Data: data})
		c.metrics.StateChunksServed++
		served++
	}
}

// OnStateReply installs a fetched manifest after verifying it against the
// agreed checkpoint digest, then starts pulling chunks.
func (c *Core) OnStateReply(env node.Env, from msg.NodeID, rep *StateReply) {
	f := c.fetch
	if f == nil || rep.Seq != f.seq || f.manifest != nil {
		return
	}
	if rep.Seq <= c.lastExec && !f.rewind {
		// Ordinary execution caught up past the snapshot while the reply
		// was in flight. Installing it now would rewind both the
		// application state and lastExec below already-executed entries,
		// wedging the commit queue's low mark permanently. (A rewind
		// transfer is the exception: it exists precisely to roll a diverged
		// replica back.)
		c.cancelFetch(env)
		return
	}
	env.Charge(c.cfg.Profile, node.ChargeHash, len(rep.Manifest))
	if msg.DigestOf(rep.Manifest) != f.digest {
		// We only ask digest voters, and a correct voter serves exactly the
		// manifest it voted — a mismatch is the server's fabrication.
		c.metrics.StateChunkRejects++
		c.rejectCert(from)
		return
	}
	m, err := decodeManifest(rep.Manifest)
	if err != nil {
		// Digest-correct but undecodable means version skew, not forgery.
		env.Logf("hybster: decode state manifest at %d: %v", rep.Seq, err)
		c.cancelFetch(env)
		return
	}
	f.manifest = m
	f.manifestBytes = rep.Manifest
	f.window = make(map[uint32][]byte, c.cfg.StateChunkWindow)
	f.sink = app.ChunkSinkOf(c.cfg.App)
	f.attempts = 0
	c.requestChunks(env, f.next)
	c.armFetchTimer(env)
}

// OnStatePrefix stores the certified prefix accompanying a manifest reply.
// It is held until the snapshot install completes; verification happens at
// replay time (applyPrefix), against the leader's counter certificates.
func (c *Core) OnStatePrefix(env node.Env, from msg.NodeID, pfx *StatePrefix) {
	f := c.fetch
	if f == nil || pfx.Seq != f.seq || f.prefix != nil {
		return
	}
	if len(pfx.Entries) > maxPrefixEntries {
		pfx.Entries = pfx.Entries[:maxPrefixEntries]
	}
	f.prefix = pfx
	f.prefixFrom = from
}

// OnStateChunk verifies one received chunk against the manifest and feeds it
// to the assembler: in-order chunks apply immediately (draining any buffered
// successors), out-of-order chunks within the window buffer, anything else
// is rejected.
func (c *Core) OnStateChunk(env node.Env, from msg.NodeID, ch *StateChunk) {
	f := c.fetch
	if f == nil || f.manifest == nil || ch.Seq != f.seq {
		return
	}
	m := f.manifest
	if ch.Index >= m.nChunks() || ch.Index < f.next {
		return // stale duplicate after a re-request; normal under retries
	}
	if ch.Index >= f.next+uint32(c.cfg.StateChunkWindow) {
		c.metrics.StateChunkRejects++
		return // beyond anything we asked for; never buffer unbounded
	}
	if len(ch.Data) != int(m.lens[ch.Index]) {
		c.metrics.StateChunkRejects++
		c.rejectCert(from)
		return
	}
	env.Charge(c.cfg.Profile, node.ChargeHash, len(ch.Data))
	if d, err := app.ChunkDigest(ch.Data); err != nil || d != m.chunks[ch.Index] {
		// The transport MAC authenticated the sender and correct replicas
		// serve only digest-verified chunks, so a mismatch (or record
		// framing that does not parse) is attributable tampering. Nothing
		// of the chunk has been used. The timer rotates us to another voter.
		c.metrics.StateChunkRejects++
		c.rejectCert(from)
		return
	}
	c.metrics.StateChunksReceived++
	if ch.Index == f.next {
		if !c.applyFetchedChunk(env, ch.Data) {
			return
		}
		for {
			data, ok := f.window[f.next]
			if !ok {
				break
			}
			delete(f.window, f.next)
			f.buffered -= len(data)
			if !c.applyFetchedChunk(env, data) {
				return
			}
		}
	} else {
		if _, dup := f.window[ch.Index]; dup {
			return
		}
		f.window[ch.Index] = ch.Data
		f.buffered += len(ch.Data)
		if uint64(f.buffered) > c.metrics.MaxFetchBufferBytes {
			c.metrics.MaxFetchBufferBytes = uint64(f.buffered)
		}
	}
	// Progress: reset the backoff, slide the request window, re-arm.
	f.attempts = 0
	if f.next >= m.nChunks() {
		c.finishFetch(env)
		return
	}
	if f.reqHigh < f.next+uint32(c.cfg.StateChunkWindow) {
		c.requestChunks(env, f.reqHigh)
	}
	c.armFetchTimer(env)
}

// applyFetchedChunk consumes the next in-order chunk, already verified: the
// records of the head chunks accumulate until the client table is complete,
// every later chunk goes to the application's chunk sink. Returns false if
// the stream is undecodable (version skew — the digests already verified),
// aborting the fetch.
func (c *Core) applyFetchedChunk(env node.Env, data []byte) bool {
	f := c.fetch
	var err error
	if f.next >= f.manifest.headChunks {
		err = f.sink.Write(data)
	} else {
		err = app.EachRecord(data, func(p []byte) error {
			f.headBuf = append(f.headBuf, p...)
			return nil
		})
		if err == nil && f.next+1 == f.manifest.headChunks {
			f.clients, err = decodeSnapshotHead(f.headBuf)
			f.headBuf = nil
		}
	}
	if err != nil {
		env.Logf("hybster: stream snapshot at %d: %v", f.seq, err)
		c.cancelFetch(env)
		return false
	}
	f.next++
	return true
}

// finishFetch commits the streamed snapshot and installs the checkpoint:
// client table, execution low mark, continuity, then the certified prefix,
// so ordering resumes mid-window.
func (c *Core) finishFetch(env node.Env) {
	f := c.fetch
	if err := f.sink.Commit(); err != nil {
		// Every chunk digest verified, so this is version skew or an
		// application bug, not an attack; a later checkpoint will retry.
		env.Logf("hybster: commit snapshot at %d: %v", f.seq, err)
		c.cancelFetch(env)
		return
	}
	// The client table travels with the snapshot: its per-client dedup
	// marks decide whether a view-change re-proposal executes or is
	// skipped, so it must match the peers' tables exactly after the
	// transfer.
	c.clients = f.clients
	// Entries above the snapshot point re-execute against the restored
	// state. After a forward transfer none are marked executed (the
	// executed prefix sits at or below lastExec < seq); after a rewind this
	// re-opens the entries the diverged execution had consumed.
	for _, e := range c.log {
		if e.seq > f.seq {
			e.executed = false
		}
	}
	c.lastExec = f.seq
	c.stableSeq = f.seq
	c.stableDigest = f.digest
	// We streamed the chunks into the application without retaining them,
	// so we hold no serving form of this checkpoint; we can serve again
	// after our next own checkpoint.
	c.stableChunks = nil
	if c.seqNext <= f.seq {
		c.seqNext = f.seq + 1
	}
	// Continuity restarts after the snapshot point.
	c.advanceContinuity(f.seq)
	prefix, prefixFrom := f.prefix, f.prefixFrom
	c.cancelFetch(env)
	c.gc(f.seq)
	// The shadow's speculated history is unrelated to the state just
	// installed (and after a rewind, possibly ahead of it): re-anchor it on
	// the transferred snapshot and retract outstanding fast answers. The
	// certified prefix replayed below re-speculates via the PREPARE path.
	c.rollbackSpec(env)
	if prefix != nil {
		if nv := prefix.NewView; nv != nil && nv.View > c.view {
			// Adopt the server's view — full certificate verification
			// included — before replaying the prefix: a joiner that slept
			// through the view change would otherwise skip every entry.
			// installView anchors lane continuity at the newer of the view
			// change's stable point and the checkpoint just installed, so
			// the prefix entries above the snapshot edge are next-in-order.
			c.OnNewView(env, prefixFrom, nv)
		}
		c.applyPrefix(env, prefixFrom, prefix)
	}
	c.executeReady(env)
	// Ordered messages buffered while we lagged may now be in-order.
	c.drainPrepares(env)
	for i := 0; i < c.cfg.N; i++ {
		c.drainCommits(env, msg.NodeID(i))
	}
}

// applyPrefix replays the certified prefix after an install: every in-flight
// prepared entry the server handed over is verified against the leader's
// counter certificate — exactly the checks a view change applies to carried
// entries — and admitted the way a PREPARE is, so the joiner certifies its
// own commits and resumes mid-window without replaying pre-checkpoint
// entries. A bad certificate is the *server's* fabrication (it vouched for
// the entry), so rejection is attributed to it, not to the leader.
func (c *Core) applyPrefix(env node.Env, from msg.NodeID, pfx *StatePrefix) {
	installed := false
	for i := range pfx.Entries {
		pe := &pfx.Entries[i]
		if pe.View != c.view || pe.Seq <= c.lastExec {
			continue // stale across a view change or below the checkpoint
		}
		leader := c.Leader(pe.View)
		if pe.PrepareCert.Replica != leader ||
			pe.PrepareCert.Counter != c.laneCounter(pe.View, pe.Seq) ||
			pe.PrepareCert.Value != pe.Seq ||
			!c.cfg.Authority.Verify(pe.PrepareCert, prepareDigest(pe.View, pe.Seq, pe.Batch.Digest())) {
			c.rejectCert(from)
			continue
		}
		c.chargeCounterOp(env)
		c.metrics.PrefixEntriesInstalled++
		installed = true
		if !c.inVC {
			c.admitPrepare(env, &msg.Prepare{View: pe.View, Seq: pe.Seq, Batch: pe.Batch, Cert: pe.PrepareCert}, pe.Batch.Digest())
		}
	}
	if installed {
		c.metrics.PrefixResumes++
	}
}

// resyncCommits jumps the per-lane commit-continuity expectations for one
// peer forward onto the counter values it is actually sending. A peer that
// installed a checkpoint via state transfer advanced its commit counters
// past the gap it jumped without us ever seeing those values; without the
// jump, everything it sends afterwards buffers in pendingCommits forever —
// a memory leak and a permanently lost voucher stream.
//
// Safety: expectations only move forward, so the replay protection of the
// continuity check is preserved (anything below the new expectation is
// dropped exactly as before). Skipping values forfeits only this peer's
// vouchers for entries we will never complete through it; each certified
// value binds one (view, seq, digest) through the trusted counter, so
// accepting later values cannot admit a conflicting commit. Liveness is
// unaffected: prepared entries reach quorum from the leader's and our own
// certificates even if a third voter's stream has a hole.
func (c *Core) resyncCommits(env node.Env, from msg.NodeID) {
	byVal := c.pendingCommits[from]
	vals := make([]uint64, 0, len(byVal))
	for v := range byVal {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	jumped := false
	seen := make(map[int]bool, c.lanes())
	for _, v := range vals {
		lane := tcounter.LaneOf(v, c.cfg.PipelineDepth)
		if seen[lane] {
			continue // only the smallest buffered value per lane matters
		}
		seen[lane] = true
		if v > c.nextCommitValue[from][lane] {
			c.nextCommitValue[from][lane] = v
			jumped = true
		}
	}
	if jumped {
		c.metrics.CommitResyncs++
		env.Logf("hybster: resynced commit continuity for replica %d", from)
		c.drainCommits(env, from)
	}
}
