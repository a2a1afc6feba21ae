package main

import (
	"fmt"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
)

// counters are the program's own counters after a repetition, summed over
// replicas and bridges, with the operation count they are normalised by.
type counters struct {
	ops int64 // every completed operation, warm-up included

	ecalls, copiedBytes             uint64
	proposed, batches, windowStalls uint64
	checkpoints, rejectedCerts      uint64
	frames, flushes, drops          uint64
	badMACs                         uint64

	handshakes, reads, writes uint64
	fastOK, fastFell          uint64
	cacheHits, cacheMisses    uint64
	invalidations, badReplies uint64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addBridge adds a live bridge's transport counters (Close resets them).
func (c *counters) addBridge(b *realnet.Bridge) {
	for _, s := range b.FlushStats() {
		c.frames += s.Frames
		c.flushes += s.Flushes
	}
	for _, n := range b.Drops() {
		c.drops += n
	}
}

// addReplicas adds every replica's counters and returns the replicas' state
// digests. Both routers must be closed: a Troxy-stats ecall racing a
// replica's own ecall would trip the enclave's one-thread budget, and the
// Hybster metrics are the handler goroutine's.
func (c *counters) addReplicas(dep *deployment) []msg.Digest {
	var digests []msg.Digest
	for i, r := range dep.replicas {
		es := dep.enclaves[i].Stats()
		c.ecalls += es.Transitions
		c.copiedBytes += es.CopiedBytes
		hm := r.Core().Metrics()
		c.proposed += hm.Proposed
		c.batches += hm.Batches
		c.windowStalls += hm.WindowStalls
		c.rejectedCerts += hm.RejectedCerts
		c.checkpoints = max(c.checkpoints, r.Core().LastExecuted()/checkpointStep)
		c.badMACs += r.Stats().BadMACs
		ts := dep.stats(i)
		c.handshakes += ts.Handshakes
		c.reads += ts.Reads
		c.writes += ts.Writes
		c.fastOK += ts.FastReadOK
		c.fastFell += ts.FastReadFell
		c.cacheHits += ts.Cache.Hits
		c.cacheMisses += ts.Cache.Misses
		c.invalidations += ts.Cache.Invalidations
		c.badReplies += ts.BadReplies
		digests = append(digests, app.StateDigest(dep.apps[i]))
	}
	return digests
}

// reconnects is how many secure-channel handshakes exceeded one per client:
// every time-out or corrupted channel makes a legacy client fail over and
// handshake again.
func (c *counters) reconnects() int64 {
	return max(int64(c.handshakes)-numClients, 0)
}

// mustBeZero lists the counters that are non-zero only when something forged,
// corrupted or dropped a message.
func (c *counters) mustBeZero() []string {
	var problems []string
	for _, z := range []struct {
		name string
		n    uint64
	}{
		{"hybster.rejected_certs", c.rejectedCerts},
		{"troxy.bad_replies", c.badReplies},
		{"replica.bad_macs", c.badMACs},
		{"realnet.drops", c.drops},
	} {
		if z.n != 0 {
			problems = append(problems, fmt.Sprintf("%s = %d, want 0", z.name, z.n))
		}
	}
	return problems
}

// metrics derives the per-layer counter metrics.
func (c *counters) metrics(failRatio float64) map[string]float64 {
	ops := float64(c.ops)
	return map[string]float64{
		"fail_ratio":                    failRatio,
		"enclave.ecalls_per_op":         ratio(float64(c.ecalls), ops),
		"enclave.copied_bytes_per_op":   ratio(float64(c.copiedBytes), ops),
		"hybster.reqs_per_batch":        ratio(float64(c.proposed), float64(c.batches)),
		"hybster.batches_per_kop":       ratio(float64(c.batches), ops/1000),
		"hybster.window_stalls_per_kop": ratio(float64(c.windowStalls), ops/1000),
		"hybster.checkpoints":           float64(c.checkpoints),
		"hybster.rejected_certs":        float64(c.rejectedCerts),
		"realnet.frames_per_flush":      ratio(float64(c.frames), float64(c.flushes)),
		"realnet.drops":                 float64(c.drops),
		"troxy.fast_read_ratio":         ratio(float64(c.fastOK), float64(c.reads)),
		"troxy.fast_read_fell_ratio":    ratio(float64(c.fastFell), float64(c.fastOK+c.fastFell)),
		"troxy.cache_hit_ratio":         ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)),
		"troxy.invalidations_per_write": ratio(float64(c.invalidations), float64(c.writes)),
		"troxy.bad_replies":             float64(c.badReplies),
		"legacyclient.retries":          float64(c.reconnects()),
		"replica.bad_macs":              float64(c.badMACs),
	}
}
