package experiments

import (
	"fmt"
	"time"

	root "github.com/troxy-bft/troxy"
)

// commitDepths is the pipeline-depth axis of the commit-level experiment: a
// serialized window and the depth the batching experiment shows recovering
// closed-loop latency.
var commitDepths = []int{1, 4}

// commitGeoLatency is the inter-replica link latency of the commit-level
// matrix: a modest geo-replicated group (replicas in nearby sites, clients
// on the local network of their replica).
const commitGeoLatency = 2 * time.Millisecond

// CommitLevel measures the tunable-commit-level fast path: the same ordered
// write workload completed on the durable tier (f+1 ordered replies after
// the COMMIT round) versus the crash-commit tier (f+1 counter-certified
// speculative replies at PREPARE time, durable settlement in the
// background).
//
// The matrix runs on a geo-replicated group (2 ms inter-replica links),
// because that is where the tier choice buys wall-clock time: the leader's
// speculative reply leaves at propose time, one full inter-replica hop
// before any peer can even emit a durable reply, so the fast quorum
// assembles a hop earlier than the durable one. On a single-switch LAN the
// saved hop is ~60 µs and disappears into the leader's 1 ms batch window —
// the tiers then differ in fault model, not latency.
//
// The depth axis shows a second effect: under a serialized window
// (depth 1) the next batch waits for the previous round to settle
// durably, so both tiers complete in lockstep with the window cycle and
// the speculative answer buys nothing. Only with a deeper window does the
// earlier answer translate into earlier closed-loop turnaround. The run
// panics if the fast tier fails to beat the durable tier's p50 at the
// largest depth — that would mean replicas are not speculating (or the
// Troxy is answering from the durable quorum anyway) and must not pass
// silently as a tuning artifact.
func CommitLevel(opt Options) []*Table {
	warmup, measure := opt.measureDurations(false)
	// A latency experiment, not a saturation one: enough closed-loop depth
	// to keep batches non-trivial, well short of saturating the replicas'
	// simulated CPUs (where queueing swamps the hop the fast tier saves).
	clients := 32
	if opt.Quick {
		clients /= 4
	}

	t := &Table{
		ID:      "commitlevel",
		Title:   "tunable commit levels: durable vs crash-commit ordered writes (geo-replicated)",
		Columns: []string{"depth", "tier", "kops/s", "mean-lat(ms)", "p50(ms)", "p90(ms)", "speculated", "confirmed", "retracted", "p50 vs durable"},
		Notes: []string{
			"2 ms inter-replica links, LAN client links; request size 1 KiB, reply 10 B; BatchSize 64, BatchDelay 1 ms",
			"durable = client completes on f+1 ordered replies; fast = client completes on f+1 PREPARE-round counter certificates",
			"speculated/confirmed/retracted are replica-side totals; every speculation settles (confirm or retract) in the background",
			"fault-free runs: retracted stays 0 — retraction only occurs when a speculated batch loses a view change",
		},
	}

	p50 := make(map[int]map[bool]time.Duration, len(commitDepths))
	for _, depth := range commitDepths {
		p50[depth] = make(map[bool]time.Duration, 2)
		var durP50 time.Duration
		for _, fast := range []bool{false, true} {
			tier := "durable"
			if fast {
				tier = "fast"
			}
			opt.progress("commitlevel: depth=%d tier=%s ...", depth, tier)
			res := runMicro(microConfig{
				mode:           root.ETroxy,
				readRatio:      0,
				reqSize:        1024,
				replySize:      10,
				clientsPerMach: clients,
				warmup:         warmup,
				measure:        measure,
				seed:           opt.seed(),
				batchSize:      64,
				batchDelay:     time.Millisecond,
				pipelineDepth:  depth,
				fastCommit:     fast,
				interReplica:   commitGeoLatency,
			})
			if res.Count == 0 {
				panic(fmt.Sprintf("commitlevel: depth=%d tier=%s measured zero operations", depth, tier))
			}
			if fast && res.specAnswered == 0 {
				panic(fmt.Sprintf("commitlevel: depth=%d fast tier completed %d ops without a single speculative answer", depth, res.Count))
			}
			if !fast && res.specAnswered != 0 {
				panic(fmt.Sprintf("commitlevel: depth=%d durable tier speculated %d times", depth, res.specAnswered))
			}
			vsDurable := "-"
			if !fast {
				durP50 = res.P50
			} else {
				vsDurable = pctFaster(res.P50, durP50)
			}
			p50[depth][fast] = res.P50
			t.AddRow(fmt.Sprintf("%d", depth), tier, kops(res.OpsPerSec),
				ms(res.Mean), ms(res.P50), ms(res.P90),
				fmt.Sprintf("%d", res.specAnswered), fmt.Sprintf("%d", res.specConfirmed),
				fmt.Sprintf("%d", res.specRetracted), vsDurable)
		}
	}

	// Hard invariant: at the deepest window the crash-commit tier must
	// answer faster than the durable tier at the median — that is the whole
	// point of trading durability for latency.
	deepest := commitDepths[len(commitDepths)-1]
	durable, fast := p50[deepest][false], p50[deepest][true]
	if durable == 0 || fast >= durable {
		panic(fmt.Sprintf(
			"commitlevel: fast tier p50 %v does not beat durable p50 %v at depth %d — replicas are not speculating ahead of the COMMIT round",
			fast, durable, deepest))
	}
	return []*Table{t}
}

// pctFaster formats how much lower lat is than base (negative: slower).
func pctFaster(lat, base time.Duration) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.0f%%", 100*float64(base-lat)/float64(base))
}
