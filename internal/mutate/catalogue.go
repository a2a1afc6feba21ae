package mutate

// Catalogue is every mutant `make mutate` runs, grouped by where the fault
// comes from. IDs are stable: DESIGN.md §9.5, ROADMAP and CHANGES.md cite them.
var Catalogue = []Mutant{
	// Bugs this repository had (CHANGES.md PRs 3, 4 and 8), reintroduced.
	{
		ID: "replay-repoisons-cache-at-executor", File: "internal/troxy/core.go",
		Fault: "PR 3: a reply-cache replay repopulates the executor's fast-read cache",
		Old:   "if c.cfg.FastReads && fresh {",
		New:   "if c.cfg.FastReads {",
	},
	{
		ID: "replay-repoisons-cache-at-voter", File: "internal/troxy/core.go",
		Fault: "PR 3: a vote completed on replayed replies caches a result older than the last write",
		Old:   "if c.cfg.FastReads && winner.seq > c.lastWriteSeq {",
		New:   "if c.cfg.FastReads {",
	},
	{
		ID: "late-statereply-rewinds", File: "internal/hybster/statesync.go",
		Fault: "PR 4: a StateReply that arrives after execution caught up rewinds lastExec",
		Old:   "if rep.Seq <= c.lastExec && !f.rewind {",
		New:   "if false {",
	},
	{
		ID: "redrive-loses-client-fifo", File: "internal/hybster/viewchange.go",
		Fault: "PR 4: the view-change re-drive runs in digest order, a client's later request first",
		Old: `		if pending[i].Client != pending[j].Client {
			return pending[i].Client < pending[j].Client
		}
		return pending[i].ClientSeq < pending[j].ClientSeq`,
		New: `		return false`,
	},
	{
		ID: "statetransfer-drops-client-table", File: "internal/hybster/statesync.go",
		Fault: "PR 4: a state transfer installs the application state without the client table",
		Old:   "	c.clients = f.clients\n",
		New:   "",
	},
	{
		ID: "stateprefix-omits-newview", File: "internal/hybster/statesync.go",
		Fault: "PR 8: the state-transfer prefix no longer carries the NEW-VIEW a sleeper missed",
		Old:   "Entries: entries, NewView: c.curNewView,",
		New:   "Entries: entries,",
	},
	{
		ID: "future-view-not-solicited", File: "internal/hybster/core.go",
		Fault: "PR 8: a replica deferring future-view traffic never asks for the NEW-VIEW",
		Old:   "		c.out.Send(env, from, &NewViewRequest{View: view})\n",
		New:   "",
	},

	// The classics: a dropped check, f for f+1, a dropped copy.
	{
		ID: "troxy-reply-tag-unverified", File: "internal/troxy/core.go", Aims: []string{"certgate"},
		Fault: "the reply voter counts replies whose Troxy tag was never checked",
		Old:   "if !c.tagger.Verify(rep.Kind(), rep.Executor, w.Bytes(), rep.TroxyTag) {",
		New:   "if false {",
	},
	{
		ID: "hybster-commit-cert-unverified", File: "internal/hybster/core.go", Aims: []string{"certgate"},
		Fault: "a COMMIT with a forged counter certificate becomes a voucher",
		Old:   "if !c.cfg.Authority.Verify(com.Cert, commitDigest(com.View, com.Seq, com.BatchDigest)) {",
		New:   "if false {",
	},
	{
		ID: "hybster-prepare-cert-unverified", File: "internal/hybster/core.go", Aims: []string{"certgate"},
		Fault: "a PREPARE with a forged counter certificate is accepted and acknowledged",
		Old:   "if !c.cfg.Authority.Verify(prep.Cert, prepareDigest(prep.View, prep.Seq, batchDigest)) {",
		New:   "if false {",
	},
	{
		ID: "viewchange-cert-unverified", File: "internal/hybster/viewchange.go", Aims: []string{"certgate"},
		Fault: "a VIEW-CHANGE is recorded, and joined, without its certificates being checked",
		Old: `	if !c.verifyViewChange(env, vc) {
		c.rejectCert(from)
		return
	}
	c.recordViewChange(env, vc)`,
		New: `	c.recordViewChange(env, vc)`,
	},
	{
		ID: "newview-cert-unverified", File: "internal/hybster/viewchange.go", Aims: []string{"certgate"},
		Fault: "a NEW-VIEW installs a view although the leader's certificate over it is forged",
		Old:   "		!c.cfg.Authority.Verify(nv.Cert, digest) {\n		c.rejectCert(from)\n		return\n	}\n	c.chargeCounterOp(env)\n	seen :=",
		New:   "		len(digest) == 0 {\n		c.rejectCert(from)\n		return\n	}\n	c.chargeCounterOp(env)\n	seen :=",
	},
	{
		ID: "specreply-cert-unverified", File: "internal/hybster/spec.go", Aims: []string{"certgate"},
		Fault: "a speculative reply counts toward the fast quorum on a forged certificate",
		Old:   "if !c.cfg.Authority.Verify(sr.Cert, bound) {",
		New:   "if len(bound) == 0 {",
	},
	{
		ID: "replica-transport-mac-unchecked", File: "internal/replica/replica.go",
		Fault: "envelopes are dispatched without their transport MAC being checked",
		Old:   "if !r.auth.VerifyMAC(e) {",
		New:   "if false {",
	},
	{
		ID: "covered-kinds-dispatched-unverified", File: "internal/replica/replica.go",
		Fault: "a FORWARD, decoded before its MAC is checked, is dispatched whatever the check says",
		Old:   "		ok, n := r.auth.VerifyMessage(e, m)\n",
		New:   "		_, n := r.auth.VerifyMessage(e, m)\n		ok := true\n",
	},
	{
		ID: "prepare-resealed", File: "internal/replica/replica.go",
		Fault: "every PREPARE is sealed with a host MAC nobody checks: its certificate already authenticates it",
		Old:   "	if authn.HostMACed(e.Kind) {\n		env.Charge(node.ProfileJava, node.ChargeMAC, r.auth.SealMessage(e, m))\n",
		New:   "	if authn.HostMACed(e.Kind) || e.Kind == msg.KindPrepare {\n		env.Charge(node.ProfileJava, node.ChargeMAC, r.auth.SealMessage(e, m))\n",
	},
	{
		ID: "future-view-parked-unverified", File: "internal/hybster/core.go",
		Fault: "a PREPARE of a future view is parked, and a NEW-VIEW solicited, before its certificate is checked: anyone can fill the deferral queue",
		Old:   "	if prep.Cert.Replica != from || from == c.cfg.Self {\n",
		New:   "	if prep.View > c.view {\n		c.deferToView(env, from, prep.View, prep.Clone())\n		return\n	}\n	if prep.Cert.Replica != from || from == c.cfg.Self {\n",
	},
	{
		ID: "unverified-cert-blamed-on-sender", File: "internal/hybster/core.go",
		Fault: "a PREPARE whose certificate does not verify is blamed on the sender its envelope claims, which no MAC authenticates",
		Old:   "prepareDigest(prep.View, prep.Seq, batchDigest)) {\n		c.metrics.UnverifiedCerts++\n",
		New:   "prepareDigest(prep.View, prep.Seq, batchDigest)) {\n		c.rejectCert(from)\n",
	},
	{
		ID: "authn-caches-unverified-peer", File: "internal/authn/authn.go",
		Fault: "the key of every sender a frame claims is cached before its MAC is checked: forged senders grow the cache without bound",
		Old:   "	m, cached := a.keyed(e.From)\n",
		New:   "	m, cached := a.keyed(e.From)\n	a.macs[e.From] = m\n",
	},
	{
		ID: "submit-digest-from-wire", File: "internal/msg/types.go",
		Fault: "a request decoded over one that carried its digest keeps that digest: a MAC or certificate is checked against a digest the bytes did not produce",
		Old:   "	m.digested = false\n	m.Origin = NodeID(int32(r.U32()))",
		New:   "	m.Origin = NodeID(int32(r.U32()))",
	},
	{
		ID: "troxy-vote-quorum-f", File: "internal/troxy/core.go", Aims: []string{"quorumcheck"},
		Fault: "the reply voter answers on f matching replies",
		Old:   "	if matching < c.cfg.Quorum() {\n		return c.out, nil\n	}\n\n	// Quorum reached",
		New:   "	if matching < c.cfg.F {\n		return c.out, nil\n	}\n\n	// Quorum reached",
	},
	{
		ID: "troxy-vote-quorum-f-plus-1", File: "internal/troxy/core.go", Aims: []string{"quorumcheck"},
		Equivalent: "Config.Quorum() returns c.F + 1: the same program, spelled out",
		Fault:      "the reply voter hand-rolls f+1",
		Old:        "	if matching < c.cfg.Quorum() {\n		return c.out, nil\n	}\n\n	// Quorum reached",
		New:        "	if matching < c.cfg.F+1 {\n		return c.out, nil\n	}\n\n	// Quorum reached",
	},
	{
		ID: "hybster-quorum-f", File: "internal/hybster/core.go",
		Fault: "certificates, checkpoints and view changes need f votes",
		Old:   "func (c Config) Quorum() int { return c.F + 1 }",
		New:   "func (c Config) Quorum() int { return c.F }",
	},
	{
		ID: "hybster-commit-quorum-skips-threshold", File: "internal/hybster/core.go", Aims: []string{"quorumcheck"},
		Fault: "a batch commits on f+2 vouchers: one crashed replica stops the cluster",
		Old:   "if !e.hasPrep || e.vouched() < c.quorum() {\n		return",
		New:   "if !e.hasPrep || e.vouched() <= c.quorum() {\n		return",
	},
	{
		ID: "checkpoint-quorum-majority-arith", File: "internal/hybster/core.go", Aims: []string{"quorumcheck"},
		Fault: "a checkpoint is stable on N/2 = f matching votes",
		Old:   "if matching < c.quorum() {",
		New:   "if matching < c.cfg.N/2 {",
	},
	{
		ID: "enclave-copy-in-dropped", File: "internal/enclave/enclave.go", Aims: []string{"copydiscipline"},
		Fault: "the ecall boundary hands trusted code the caller's buffer, not a copy",
		Old:   "		buf = append(buf[:0], arg...)\n		in = buf",
		New:   "		in = arg",
	},
	{
		ID: "troxy-fallback-op-not-cloned", File: "internal/troxy/core.go", Aims: []string{"copydiscipline"},
		Fault: "a fast read keeps a view of the ecall argument for its fallback request",
		Old:   "Op:        append(qs.fallback.Op[:0], op...),",
		New:   "Op:        op,",
	},
	{
		ID: "prophecy-pending-op-is-a-view", File: "internal/prophecy/prophecy.go",
		Fault: "the middlebox keeps a pending request's operation as a view of the record it came in, which the next record on the connection overwrites: a re-ordered request goes out with another's bytes",
		Old:   "op:      bytes.Clone(op), // a view of the record, which the next one overwrites",
		New:   "op:      op,",
	},
	{
		ID: "handshake-failure-drops-session", File: "internal/troxy/channels.go",
		Fault: "a failed handshake installs its nil session before the error is checked: one garbage handshake frame cuts an established connection off",
		Old:   "		if err != nil {\n			return nil, -1, fmt.Errorf(\"%w: %v\", ErrBadChannel, err)\n		}\n		sess.sc, sess.httpBuf",
		New:   "		if sess.sc = sc; err != nil {\n			return nil, -1, fmt.Errorf(\"%w: %v\", ErrBadChannel, err)\n		}\n		sess.sc, sess.httpBuf",
	},
	{
		ID: "cache-reply-destination-unchecked", File: "internal/troxy/core.go",
		Fault: "a cache reply addressed to another Troxy counts toward a pending fast read here that has the same query ID and operation",
		Old:   "r.To != c.cfg.Self || ",
		New:   "",
	},
	{
		ID: "write-reply-skips-invalidate", File: "internal/troxy/core.go",
		Fault: "a write's reply is tagged without the executor's cache entries it outdates being invalidated first, so a completed write no longer implies f+1 invalidated caches",
		Old:   "		c.cache.InvalidateKeys(rep.InvalidKeys)\n",
		New:   "",
	},
	{
		ID: "fast-read-confirms-with-f-minus-1", File: "internal/troxy/core.go",
		Fault: "a fast read asks f-1 remote Troxies instead of f, so the local entry and its confirmations are f Troxies and need not meet the write quorum",
		Old:   "for _, r := range c.chooseReplicas(c.cfg.F) {",
		New:   "for _, r := range c.chooseReplicas(c.cfg.F - 1) {",
	},
	{
		ID: "router-delay-keeps-sender-envelope", File: "internal/realnet/realnet.go",
		Fault: "a delayed delivery keeps the sender's envelope instead of a copy of its header and bytes, and delivers whatever the sender has put there since",
		Old:   "		w := wire.GetWriter()\n		delayed := *e\n		faultplane.CopyEnvelope(w, &delayed)\n		time.AfterFunc(d.Delay, func() {\n			r.deliver(&delayed)\n			wire.PutWriter(w)\n		})\n",
		New:   "		time.AfterFunc(d.Delay, func() { r.deliver(e) })\n",
	},
	{
		ID: "realnet-local-delivery-shares-body", File: "internal/realnet/realnet.go",
		Fault: "a local delivery's mailbox item copies the sender's header but keeps its body and MAC, which the sender reuses the moment Send returns",
		Old:   "		item := mailboxItem{env: *e, buf: wire.GetWriter()}\n		faultplane.CopyEnvelope(item.buf, &item.env)\n",
		New:   "		item := mailboxItem{env: *e}\n",
	},
	{
		ID: "realnet-mailbox-keeps-delivered-slot", File: "internal/realnet/realnet.go",
		Fault: "the mailbox leaves a delivered item in its slot, so the array keeps the pooled writer, back in the pool and refilled by the next delivery, until the slot is reused",
		Old:   "		n.queue[n.head] = mailboxItem{}\n",
		New:   "",
	},
	{
		ID: "simnet-send-shares-body", File: "internal/simnet/simnet.go",
		Fault: "a queued simulated delivery copies the sender's header but keeps its body and MAC, which the sender reuses the moment Send returns",
		Old:   "	ev := &event{at: at, kind: evDeliver, to: env.To, env: *env, buf: wire.GetWriter()}\n	faultplane.CopyEnvelope(ev.buf, &ev.env)\n",
		New:   "	ev := &event{at: at, kind: evDeliver, to: env.To, env: *env}\n",
	},
	{
		ID: "group-tag-kind-dropped", File: "internal/troxy/grouptag.go",
		Fault: "group tags no longer bind the message kind: a tag made for one kind of Troxy message verifies as another's over the same bytes",
		Old:   "g.hdr = [5]byte{byte(kind), byte(instance),",
		New:   "g.hdr = [5]byte{0, byte(instance),",
	},
	{
		ID: "admit-prepare-parks-view", File: "internal/hybster/core.go",
		Fault: "a PREPARE ahead of its lane is parked as the struct it was decoded into, which the replica decodes the next PREPARE over: the parked proposal is whatever came last",
		Old:   "c.pendingPrepares[prep.Cert.Value] = prep.Clone() // held past this call",
		New:   "c.pendingPrepares[prep.Cert.Value] = prep // held past this call",
	},
	{
		ID: "submit-keeps-the-callers-request", File: "internal/hybster/core.go",
		Fault: "Submit keeps the request it is handed instead of a copy: the progress watch, the batch and the log hold a view of the Troxy call's result, which the binding's next call overwrites",
		Old:   "		held = c.keep(req)\n",
		New:   "		held = req\n",
	},
	{
		ID: "slab-carve-shares-capacity", File: "internal/hybster/slab.go",
		Fault: "an operation carved from the slab keeps the chunk's spare capacity: an append to one kept operation writes into the next",
		Old:   "	kept := s.ops[:n:n]\n",
		New:   "	kept := s.ops[:n]\n",
	},
	{
		ID: "store-overwrites-captured-value", File: "internal/app/store.go",
		Fault: "a PUT overwrites any value that fits in place, also one a retained checkpoint, a fork or a snapshot iterator still holds: the captured state changes under its digests",
		Old:   "		if e.gen == s.gen && cap(e.value) >= len(value) {\n",
		New:   "		if cap(e.value) >= len(value) {\n",
	},
	{
		ID: "store-iter-keeps-generation", File: "internal/app/store.go",
		Fault: "opening a snapshot iterator leaves the store's generation as it is: a PUT before the iterator ends overwrites a value it has yet to encode",
		Old:   "	s.gen++\n	// At least one entry per piece",
		New:   "	// At least one entry per piece",
	},
	{
		ID: "held-request-matched-by-id-only", File: "internal/hybster/core.go",
		Fault: "a follower takes any request under a client and sequence number it watches for the one it submitted: the certificate is checked against the held digest, whatever bytes the PREPARE carries",
		Old:   "bytes.Equal(held.Op, req.Op) {",
		New:   "bytes.Equal(held.Op[:0], req.Op[:0]) {",
	},
	{
		ID: "held-digest-with-wire-bytes", File: "internal/hybster/core.go",
		Fault: "a recognised request takes the held digest and keeps the PREPARE's bytes: the origin copies its own request into the log again",
		Old:   "				*req = *held\n",
		New:   "				req.SetDigest(held.Digest())\n",
	},
	{
		ID: "vote-recycled-before-answer", File: "internal/troxy/core.go",
		Fault: "a completed vote is cleared and recycled before the client's answer is sealed from it",
		Old:   "	if !vs.specAnswered || !c.cfg.HTTP {\n		c.sealToClient(vs.connID, key.clientSeq, msg.StatusOK, winner.result)\n	}\n	// The answer is sealed, so what the vote kept is needed no more.\n	c.recycleVote(vs)\n",
		New:   "	c.recycleVote(vs)\n	if !vs.specAnswered || !c.cfg.HTTP {\n		c.sealToClient(vs.connID, key.clientSeq, msg.StatusOK, winner.result)\n	}\n",
	},
	{
		ID: "query-recycled-while-pending", File: "internal/troxy/core.go",
		Fault: "an ended fast read goes on the free list but stays in the pending queries: a Tick expires it, and a new fast read reusing it answers to two IDs",
		Old:   "	delete(c.queries, id)\n	delete(c.queryOf, qs.key)\n",
		New:   "	delete(c.queryOf, qs.key)\n",
	},
	{
		ID: "cache-touch-ignores-keys", File: "internal/troxy/cache.go",
		Fault: "a result installed again under other keys counts as the one cached: the entry stays indexed under its old keys, and a write to a new one leaves it in place",
		Old:   "bytes.Equal(e.reply, reply) && bytes.Equal(e.keys, keys)",
		New:   "bytes.Equal(e.reply, reply)",
	},
	{
		ID: "cache-invalidate-drops-head-only", File: "internal/troxy/cache.go",
		Fault: "invalidating a state part drops only the first entry in its list: the other reads that depend on it stay cached",
		Old:   "l != nil; l = c.byKey[string(key)] {",
		New:   "l != nil; l = nil {",
	},
	{
		ID: "client-record-body-misaligned", File: "internal/troxy/trusted.go",
		Fault: "a client record crosses the boundary as connection, node and frame, so the span the host sends as its ChannelData body starts in the wrong place",
		Old:   "		w.U32(uint32(cr.Node))\n		(&msg.ChannelData{ConnID: cr.ConnID, Payload: cr.Frame}).MarshalWire(w)\n",
		New:   "		w.U64(cr.ConnID)\n		w.U32(uint32(cr.Node))\n		w.Bytes32(cr.Frame)\n",
	},
	{
		ID: "enclave-provision-copy-dropped", File: "internal/enclave/enclave.go", Aims: []string{"copydiscipline"},
		Fault: "provisioning forwards the caller's secret buffers by reference",
		Old:   "		c := make([]byte, len(v))\n		copy(c, v)\n		in[k] = c",
		New:   "		in[k] = v",
	},
	{
		ID: "simnet-timer-outlives-incarnation", File: "internal/simnet/simnet.go",
		Fault: "an event is no longer bound to the incarnation that owned it: a node attached again under a detached ID receives the old one's pending timer, under the generation its own first timer draws, and the deliveries queued at the old one's NIC",
		Old:   "sn.crashed || e.node != nil && e.node != sn {",
		New:   "sn.crashed {",
	},
	{
		ID: "recovery-open-aliases-body", File: "internal/hybster/messages.go",
		Fault: "a view-change or state-transfer message is decoded as a view of the envelope body its handler keeps it beside, so the transport's next write over that body rewrites held evidence",
		Old:   "	r := wire.NewReader(append([]byte(nil), e.Body...))\n",
		New:   "	r := wire.NewReader(e.Body)\n",
	},

	// Untrusted lengths that size an allocation.
	{
		ID: "manifest-chunk-cap-dropped", File: "internal/hybster/snapshot.go", Aims: []string{"boundedalloc"},
		Equivalent: "the next check ties n to the bytes present, so the table is at most 16/36 of a manifest that already arrived and passed the quorum digest; the inputs it newly admits (over 2^20 chunks) break no stated bound",
		Fault:      "decodeManifest loses its maxManifestChunks guard",
		Old: `	if n > maxManifestChunks {
		return nil, fmt.Errorf("manifest claims %d chunks, cap %d", n, maxManifestChunks)
	}
`,
		New: "",
	},
	{
		ID: "manifest-chunk-bounds-dropped", File: "internal/hybster/snapshot.go", Aims: []string{"boundedalloc"},
		Fault: "decodeManifest allocates whatever table a four-byte count claims",
		Old: `	if n > maxManifestChunks {
		return nil, fmt.Errorf("manifest claims %d chunks, cap %d", n, maxManifestChunks)
	}
	// Bound the table allocation by the bytes actually present: a short
	// message claiming a huge table must fail before allocating it.
	if uint64(n)*uint64(manifestEntryLen) != uint64(r.Remaining()) {
		return nil, fmt.Errorf("manifest claims %d chunks with %d bytes left", n, r.Remaining())
	}
`,
		New: "",
	},
	{
		ID: "wire-readframe-cap-dropped", File: "internal/wire/wire.go", Aims: []string{"boundedalloc"},
		Fault: "ReadFrame allocates the four GiB a hostile frame header claims",
		Old: `	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
`,
		New: "	n := binary.LittleEndian.Uint32(hdr[:])\n",
	},
	{
		ID: "wire-chunkreader-cap-dropped", File: "internal/wire/wire.go", Aims: []string{"boundedalloc"},
		Fault: "the chunked ingress reader grows its buffer to whatever a frame header claims",
		Old: `			n := int(binary.LittleEndian.Uint32(c.buf[c.off:]))
			if n > MaxFrameLen {
				return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
			}
`,
		New: "			n := int(binary.LittleEndian.Uint32(c.buf[c.off:]))\n",
	},
	{
		ID: "batch-decode-prealloc-unclamped", File: "internal/msg/types.go", Aims: []string{"boundedalloc"},
		Fault: "a four-byte batch header preallocates up to 2^20 requests",
		Old:   "m.Reqs = make([]OrderRequest, 0, min(n, 64))",
		New:   "m.Reqs = make([]OrderRequest, 0, n)",
	},
	{
		ID: "http-content-length-overflows", File: "internal/httpfront/httpfront.go", Aims: []string{"boundedalloc"},
		Fault: "a client's Content-Length near the int maximum overflows the request's length and panics the Troxy in make",
		Old: `	if contentLength > MaxRequestSize-bodyStart {
		return nil, 0, ErrRequestTooLarge
	}
	total := bodyStart + contentLength
`,
		New: `	total := bodyStart + contentLength
	if total > MaxRequestSize {
		return nil, 0, ErrRequestTooLarge
	}
`,
	},

	// Determinism of the replicated core and of the simulator per seed.
	{
		ID: "snapshot-head-unsorted", File: "internal/hybster/snapshot.go", Aims: []string{"determinism"},
		Fault: "the client table is serialized in map order: replicas vote different checkpoint digests",
		Old:   "sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })\n	w.U32(uint32(len(ids)))",
		New:   "sort.Slice(ids, func(i, j int) bool { return false })\n	w.U32(uint32(len(ids)))",
	},
	{
		ID: "fetch-jitter-global-rand", File: "internal/hybster/statesync.go", Import: "math/rand", Aims: []string{"determinism"},
		Fault: "the state-fetch retry timer draws its jitter from the process-global source",
		Old:   "time.Duration(env.Rand().Int63n(int64(d)))",
		New:   "time.Duration(rand.Int63n(int64(d)))",
	},
	{
		ID: "troxy-replica-choice-global-rand", File: "internal/troxy/core.go", Aims: []string{"determinism"},
		Fault: "fast reads pick the replicas they confirm with from the process-global source",
		Old:   "c.rng.Shuffle(len(others),",
		New:   "rand.Shuffle(len(others),",
	},
	{
		ID: "troxy-query-start-wall-clock", File: "internal/troxy/core.go", Aims: []string{"determinism"},
		Fault: "a fast read is stamped with the wall clock and expired against the caller's time",
		Old:   "		started:   now,\n",
		New:   "		started:   time.Duration(time.Now().UnixNano()),\n",
	},
	{
		ID: "spec-retractions-in-map-order", File: "internal/hybster/spec.go", Aims: []string{"determinism"},
		Fault: "a rollback retracts outstanding speculations in map order",
		Old:   "	for _, k := range keys {\n		rec := c.specOut[k]",
		New:   "	for k := range c.specOut {\n		rec := c.specOut[k]",
	},
	{
		ID: "troxy-tick-expiry-unsorted", File: "internal/troxy/core.go", Aims: []string{"determinism"},
		Fault: "timed-out fast reads fall back to ordering in map order",
		Old:   "sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })",
		New:   "sort.Slice(expired, func(i, j int) bool { return false })",
	},

	// Locks, send errors, secrets, message kinds, the trust boundary.
	{
		ID: "conn-write-holds-lock", File: "internal/legacyclient/conn.go", Aims: []string{"lockcheck"},
		Fault: "the legacy client's secure-channel writer holds wmu across the socket write: no writer can queue behind a flush",
		Old: `		c.wmu.Unlock()
		if err == nil {
			_, err = bufs.WriteTo(c.raw)
		}
		c.wmu.Lock()
`,
		New: `		if err == nil {
			_, err = bufs.WriteTo(c.raw)
		}
`,
	},
	{
		ID: "gateway-close-holds-lock", File: "internal/realnet/tcp.go", Aims: []string{"lockcheck"},
		Fault: "the Bridge and Gateway teardown closes live sockets under mu, which accept and teardown contend on",
		Old: `	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
`,
		New: `	for _, conn := range conns {
		conn.Close()
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
`,
	},
	{
		ID: "conn-seal-writes-under-lock", File: "internal/legacyclient/conn.go", Aims: []string{"lockcheck"},
		Fault: "the legacy client's secure-channel writer's seal helper writes the records to the socket itself, with wmu still held",
		Old:   "	return bufs, nil\n}",
		New:   "	_, err := bufs.WriteTo(c.raw)\n	return nil, err\n}",
	},
	{
		ID: "tcounter-certify-reenters-lock", File: "internal/tcounter/tcounter.go", Aims: []string{"lockcheck"},
		Fault: "Certify reads the last value through Value, which locks the mutex Certify already holds",
		Old:   "	last, used := s.counters[counter]\n",
		New:   "	last := s.Value(counter)\n	used := last > 0\n",
	},
	{
		ID: "realnet-enqueue-leaks-lock", File: "internal/realnet/realnet.go", Aims: []string{"lockcheck"},
		Fault: "a delivery to a stopped node returns with the mailbox lock held",
		Old:   "	if n.closed {\n		n.mu.Unlock()\n		return\n	}\n	if len(n.queue) == cap(n.queue)",
		New:   "	if n.closed {\n		return\n	}\n	if len(n.queue) == cap(n.queue)",
	},
	{
		ID: "gateway-payload-error-dropped", File: "internal/realnet/tcp.go", Aims: []string{"senderr"},
		Equivalent: "OpenChannelData refuses a payload over wire.MaxBytesLen and a frame holds wire.MaxFrameLen, 64 KiB more, so the frame encode whose error it drops cannot fail (TestGatewayNeverFramesAnOversizedPayload holds both bounds)",
		Fault:      "the gateway queues a client-bound frame whose encoding failed",
		Old: `	if err := wire.AppendFramePayload(w, cd.Payload); err != nil {
		wire.PutWriter(w)
		h.ring.stats.drops.Add(1)
		return
	}
`,
		New: "	_ = wire.AppendFramePayload(w, cd.Payload)\n",
	},
	{
		ID: "client-write-error-dropped", File: "internal/legacyclient/dial.go", Aims: []string{"senderr"},
		Fault: "the TCP client waits out its deadline for a reply to a request it failed to send",
		Old: `	if _, err := c.conn.Write(frame); err != nil {
		return nil, fmt.Errorf("write frame: %w", err)
	}
	for {`,
		New: `	_, _ = c.conn.Write(frame)
	for {`,
	},
	{
		ID: "tcounter-error-leaks-key", File: "internal/tcounter/tcounter.go", Aims: []string{"secretflow"},
		Fault: "a refused certification formats the counter key into an error the host logs",
		Old:   `fmt.Errorf("%w: counter %d at %d, asked %d",` + "\n			ErrNotMonotonic, counter, last, value)",
		New:   `fmt.Errorf("%w: counter %d at %d, asked %d (key %x)",` + "\n			ErrNotMonotonic, counter, last, value, s.key)",
	},
	{
		ID: "troxy-handshake-error-leaks-identity", File: "internal/troxy/channels.go", Aims: []string{"secretflow"},
		Fault: "a failed handshake formats the service's private key into an error the host logs",
		Old:   "			return nil, -1, fmt.Errorf(\"%w: %v\", ErrBadChannel, err)\n		}\n		sess.sc, sess.httpBuf = sc, nil",
		New:   "			return nil, -1, fmt.Errorf(\"%w: %v (identity %x)\", ErrBadChannel, err, c.identity)\n		}\n		sess.sc, sess.httpBuf = sc, nil",
	},
	{
		ID: "aead-error-leaks-session-key", File: "internal/securechannel/securechannel.go", Aims: []string{"secretflow"},
		Fault: "a refused cipher key is formatted into the handshake error, three calls from where the session keys are derived",
		Old:   `fmt.Errorf("securechannel: cipher: %w", err)`,
		New:   `fmt.Errorf("securechannel: cipher for key %x: %w", key, err)`,
	},
	{
		ID: "stats-ecall-leaks-identity", File: "internal/troxy/trusted.go", Aims: []string{"secretflow"},
		Fault: "the stats ecall returns the service's private key to the host after the counters",
		Old:   "			return encodeStats(t.core.Stats()), nil\n",
		New:   "			return append(encodeStats(t.core.Stats()), t.core.channels.identity...), nil\n",
	},
	{
		ID: "core-drops-newviewrequest-case", File: "internal/hybster/core.go", Aims: []string{"exhaustive"},
		Fault: "the core's dispatch loses a message kind, which it then refuses as not its own",
		Old:   "	case *NewViewRequest:\n		c.OnNewViewRequest(env, from, m)\n",
		New:   "",
	},
	{
		ID: "replica-default-arm-dropped", File: "internal/replica/replica.go", Aims: []string{"exhaustive"},
		Fault: "the replica's dispatch stops counting the kinds neither it nor the core handles",
		Old:   "		if !r.core.OnMessage(env, e.From, m) {\n			r.stats.Unhandled++\n		}\n",
		New:   "		r.core.OnMessage(env, e.From, m)\n",
	},
	{
		ID: "deferred-replay-drops-commit", File: "internal/hybster/core.go", Aims: []string{"exhaustive"},
		Fault: "COMMITs deferred to a future view are dropped when the view installs",
		Old:   "		c.OnMessage(env, d.from, d.m)\n",
		New:   "		if _, commit := d.m.(*msg.Commit); !commit {\n			c.OnMessage(env, d.from, d.m)\n		}\n",
	},
	{
		ID: "tcounter-certify-ocall", File: "internal/tcounter/tcounter.go", Import: "github.com/troxy-bft/troxy/internal/realnet",
		Aims:  []string{"boundarycheck"},
		Fault: "the trusted counter calls out to the untrusted TCP runtime with every statement it certifies",
		Old:   "	s.counters[counter] = value\n",
		New:   "	s.counters[counter] = value; realnet.NewRouter().Send(&msg.Envelope{From: s.owner, To: s.owner, Kind: msg.KindCheckpoint, Body: digest[:]})\n",
	},
	{
		ID: "troxy-provision-ocall", File: "internal/troxy/core.go", Import: "github.com/troxy-bft/troxy/internal/realnet",
		Aims:  []string{"boundarycheck"},
		Fault: "the Troxy hands the group secret to the untrusted TCP runtime as it is provisioned",
		Old:   "	c.tagger = NewGroupTagger(group)\n",
		New:   "	c.tagger = NewGroupTagger(group)\n	realnet.NewRouter().Send(&msg.Envelope{From: c.cfg.Self, To: c.cfg.Self, Kind: msg.KindChannelData, Body: group})\n",
	},
	{
		ID: "troxy-plaintext-ocall", File: "internal/troxy/channels.go", Import: "github.com/troxy-bft/troxy/internal/realnet",
		Aims:  []string{"boundarycheck"},
		Fault: "the Troxy hands every client-bound plaintext to the untrusted TCP runtime before sealing it",
		Old:   "	dst, err := sess.sc.AppendSeal(dst, plaintext)\n",
		New:   "	realnet.NewRouter().Send(&msg.Envelope{From: sess.node, To: sess.node, Kind: msg.KindChannelData, Body: plaintext}); dst, err := sess.sc.AppendSeal(dst, plaintext)\n",
	},
	{
		ID: "troxy-plaintext-netcall", File: "internal/troxy/channels.go", Import: "net",
		Fault: "the Troxy sends every HTTP request's plaintext out of the enclave through the standard library's UDP socket, checking the write's error",
		Old:   "			sess.httpBuf = append(sess.httpBuf, plaintext...)\n",
		New:   "			sess.httpBuf = append(sess.httpBuf, plaintext...); if conn, err := net.Dial(\"udp\", \"127.0.0.1:9\"); err == nil { _, err = conn.Write(plaintext); conn.Close(); if err != nil { return nil, opened, err } }\n",
	},

	// Allocations on annotated hot paths.
	{
		ID: "commit-marshal-allocates", File: "internal/msg/types.go", Aims: []string{"allocfree"},
		Fault: "encoding a COMMIT copies its digest through the heap",
		Old:   "	writeDigest(w, m.BatchDigest)\n	m.Cert.MarshalWire(w)\n}",
		New:   "	w.Raw(append([]byte(nil), m.BatchDigest[:]...))\n	m.Cert.MarshalWire(w)\n}",
	},
	{
		ID: "envelope-frame-allocates", File: "internal/msg/msg.go", Aims: []string{"allocfree"},
		Fault: "the ring transport's frame encoder copies every body before writing it",
		Old:   "	w.Bytes32(e.Body)\n	w.Bytes32(e.MAC)\n	return w.EndFrame(mark)",
		New:   "	w.Bytes32(append([]byte(nil), e.Body...))\n	w.Bytes32(e.MAC)\n	return w.EndFrame(mark)",
	},
	{
		ID: "ring-take-allocates", File: "internal/realnet/ring.go", Aims: []string{"allocfree"},
		Fault: "every drain of a send ring allocates the next slot array",
		Old:   "	r.slots = r.spare[:0]\n",
		New:   "	r.slots = make([]*wire.Writer, 0, ringCapacity)\n",
	},
}
