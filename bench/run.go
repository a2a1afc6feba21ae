package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/troxy-bft/troxy/internal/node"
)

// A workload run is reps repetitions, each on a fresh cluster; the measured
// windows add up to the run's -seconds and every repetition warms up for a
// quarter of its window first.
const (
	reps          = 4
	warmupDivisor = 4
	extraSetups   = 8 // set-up-only cycles: setup_s is the fastest of reps+extraSetups set-ups
)

// windows splits a run's measured seconds over n repetitions.
func windows(seconds float64, n int) (warmup, measure time.Duration) {
	measure = time.Duration(seconds / float64(n) * float64(time.Second))
	return measure / warmupDivisor, measure
}

// runResult is the outcome of one pass over a workload: the end-to-end
// metrics, or the per-layer metrics of a traced run.
type runResult struct {
	values            map[string]float64
	samples           int
	attempted, failed int64
}

// runEndToEnd measures a workload with tracing off: reps repetitions, pooled.
func runEndToEnd(spec workloadSpec, seed int64, seconds float64) (*runResult, error) {
	warmup, measure := windows(seconds, reps)
	var results []*repResult
	for rep := 0; rep < reps; rep++ {
		r, err := runRep(repConfig{spec: spec, seed: seed, rep: rep, warmup: warmup, measure: measure})
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", spec.Name, rep, err)
		}
		results = append(results, r)
	}
	// setup_s is tens of milliseconds and so the noisiest metric: set up a few
	// more times.
	var setups []time.Duration
	for i := 0; i < extraSetups; i++ {
		r, err := runRep(repConfig{spec: spec, seed: seed, rep: reps + i, setupOnly: true})
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", spec.Name, i, err)
		}
		setups = append(setups, r.setup)
	}
	return pool(spec, results, setups), nil
}

func percentile(sorted []int64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[len(sorted)*p/100])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// best holds, per timing metric, the best value any window has shown.
type best struct {
	rate, p50, cpuPerOp float64
	seen                bool
}

// scan slides a window of about length over one repetition's slices and keeps
// each metric's best value: the highest throughput, the lowest median latency
// and the lowest CPU time per operation (each may come from another window).
func (b *best) scan(r *repResult, length time.Duration) {
	w := min(max(1, int(length/sliceLen)), len(r.slices))
	for i := 0; i+w <= len(r.slices); i++ {
		var dur, cpu time.Duration
		for _, sl := range r.slices[i : i+w] {
			dur += sl.dur
			cpu += sl.cpu
		}
		lo, hi := r.slices[i].lo, r.slices[i+w-1].hi
		if hi == lo {
			continue
		}
		n := float64(hi - lo)
		rate := ratio(n, dur.Seconds())
		p50 := percentile(sortedCopy(r.lat[lo:hi]), 50) / 1e6
		cpuPerOp := ratio(float64(cpu.Nanoseconds())/1e3, n)
		if !b.seen {
			*b = best{rate: rate, p50: p50, cpuPerOp: cpuPerOp, seen: true}
			continue
		}
		b.rate = max(b.rate, rate)
		b.p50 = min(b.p50, p50)
		b.cpuPerOp = min(b.cpuPerOp, cpuPerOp)
	}
}

// pool combines repetitions (and the set-up times of the set-up-only cycles)
// into the end-to-end metrics.
//
// The machines the benchmark runs on are small guests of a shared host, and a
// neighbour's load slows a virtual CPU to two thirds or one third of its speed
// for seconds at a time, invisibly to the guest (its CPU clock keeps counting).
// A mean or median over a run then follows the neighbours, not the program:
// the same binary gave medians 40 % apart in runs minutes apart. What the
// program does when it has the CPU to itself is what the least disturbed
// stretch of the run shows, so every timing metric is the best value over all
// windows of the workload's Window length, slid over every repetition in steps
// of sliceLen — and setup_s is the fastest set-up. Disturbance only ever makes
// these worse, so the best is the steady estimate (as with the minimum of
// repeated timings of a function); on a quiet machine it sits a few percent
// beside the median.
//
// The allocation metrics repeat to a fraction of a percent and are totals over
// the windows. The live heap after a repetition depends on where in a
// checkpoint interval the load stopped (the log since the last checkpoint is
// still held), which is uniform noise: the mean over repetitions estimates it
// best.
func pool(spec workloadSpec, results []*repResult, extraSetups []time.Duration) *runResult {
	var (
		ops             int
		mallocs, allocB uint64
		b               best
		heaps           []float64
		out             = &runResult{}
	)
	setup := time.Duration(math.MaxInt64)
	for _, s := range extraSetups {
		setup = min(setup, s)
	}
	for _, r := range results {
		ops += len(r.lat)
		mallocs += r.mallocs
		allocB += r.allocBytes
		heaps = append(heaps, float64(r.heapLive)/(1<<20))
		setup = min(setup, r.setup)
		out.attempted += r.attempted
		out.failed += r.failed
		b.scan(r, spec.Window)
	}
	out.samples = ops
	out.values = map[string]float64{
		"ops_per_s":       b.rate,
		"lat_p50_ms":      b.p50,
		"cpu_us_per_op":   b.cpuPerOp,
		"allocs_per_op":   ratio(float64(mallocs), float64(ops)),
		"alloc_kb_per_op": ratio(float64(allocB)/1024, float64(ops)),
		"heap_live_mb":    mean(heaps),
		"setup_s":         setup.Seconds(),
	}
	return out
}

// runTraced measures a workload's per-layer metrics: one untraced repetition
// for the program's counters (and the tracing overhead), one traced
// repetition for the spans. Both get half of seconds.
func runTraced(spec workloadSpec, seed int64, seconds float64, outDir string) (*runResult, error) {
	warmup, measure := windows(seconds, 2)
	plain, err := runRep(repConfig{spec: spec, seed: seed, rep: reps, warmup: warmup, measure: measure})
	if err != nil {
		return nil, fmt.Errorf("%s counter repetition: %w", spec.Name, err)
	}
	traced, err := runRep(repConfig{spec: spec, seed: seed, rep: reps + 1, warmup: warmup, measure: measure, traced: true})
	if err != nil {
		return nil, fmt.Errorf("%s traced repetition: %w", spec.Name, err)
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	values := plain.counters.metrics(ratio(float64(failed), float64(attempted)))
	for k, v := range traceMetrics(traced) {
		values[k] = v
	}
	values["lat_p99_ms"] = percentile(sortedCopy(plain.lat), 99) / 1e6
	values["trace.overhead_ratio"] = ratio(
		ratio(float64(len(traced.lat)), traced.window.Seconds()),
		ratio(float64(len(plain.lat)), plain.window.Seconds()))
	if err := traced.trace.tracer.write(outDir, spec.Name, seed, values); err != nil {
		return nil, err
	}
	return &runResult{values: values, samples: len(traced.lat), attempted: attempted, failed: failed}, nil
}

// traceMetrics derives the span metrics of a traced repetition. All per-op
// figures are over the operations completed in the measured window.
func traceMetrics(r *repResult) map[string]float64 {
	t := r.trace.tracer
	ops := float64(len(r.lat))
	var (
		self                           [numLayers]int64
		busy, stallNs, stallCount      int64
		msgs, bytes, waitNs, waitCount int64
		charges                        [node.ChargeJNI + 1]chargeCount
	)
	for i, n := range t.nodes {
		for l := range self {
			self[l] += n.self[l]
			busy += n.self[l]
		}
		if i >= numReplicas {
			continue // the charges and sends of the server side only
		}
		stallNs += n.stallNs
		stallCount += n.stallCount
		msgs += n.sentMsgs
		bytes += n.sentBytes
		waitNs += n.waitNs
		waitCount += n.waitCount
		for k := range charges {
			charges[k].calls += n.charges[k].calls
			charges[k].bytes += n.charges[k].bytes
		}
	}
	mac, aead, hash, transition := charges[node.ChargeMAC], charges[node.ChargeAEAD], charges[node.ChargeHash], charges[node.ChargeTransition]
	perOpUs := func(ns int64) float64 { return ratio(float64(ns)/1e3, ops) }
	cpuUs := ratio(float64(r.cpu.Nanoseconds())/1e3, ops)
	st := r.trace.stages
	stageMs := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(st.complete)) }

	var reads, writes []int64
	for i, l := range r.lat {
		if r.readLat[i] {
			reads = append(reads, l)
		} else {
			writes = append(writes, l)
		}
	}
	return map[string]float64{
		"legacyclient.busy_us_per_op": perOpUs(self[layerClient]),
		"replica.self_us_per_op":      perOpUs(self[layerReplica]),
		"troxy.busy_us_per_op":        perOpUs(self[layerTroxy]),
		"tcounter.busy_us_per_op":     perOpUs(self[layerCounter]),
		"app.exec_us_per_op":          perOpUs(self[layerExec]),
		"app.snapshot_us_per_op":      perOpUs(self[layerSnapshot]),
		// What the handlers did not burn: I/O goroutines, frame encode and
		// decode, syscalls, the garbage collector's own workers. The self
		// times add up to the handlers' busy time, so the seven sum to the
		// traced CPU per operation.
		"realnet.residual_us_per_op":  cpuUs - perOpUs(busy),
		"trace.cpu_us_per_op":         cpuUs,
		"hybster.checkpoint_stall_ms": ratio(float64(stallNs)/1e6, float64(stallCount)),
		"replica.msgs_per_op":         ratio(float64(msgs), ops),
		"replica.bytes_per_op":        ratio(float64(bytes), ops),
		"realnet.mailbox_wait_us":     ratio(float64(waitNs)/1e3, float64(waitCount)),
		"stage.ingress_ms":            stageMs(st.ingress),
		"stage.troxy_in_ms":           stageMs(st.troxyIn),
		"stage.order_ms":              stageMs(st.order),
		"stage.vote_ms":               stageMs(st.vote),
		"stage.egress_ms":             stageMs(st.egress),
		"trace.lat_mean_ms":           stageMs(r.trace.latSum),
		"charge.mac_per_op":           ratio(float64(mac.calls), ops),
		"charge.mac_bytes_per_op":     ratio(float64(mac.bytes), ops),
		"charge.aead_bytes_per_op":    ratio(float64(aead.bytes), ops),
		"charge.hash_bytes_per_op":    ratio(float64(hash.bytes), ops),
		"charge.transition_per_op":    ratio(float64(transition.calls), ops),
		"legacyclient.read_p50_ms":    percentile(sortedCopy(reads), 50) / 1e6,
		"legacyclient.write_p50_ms":   percentile(sortedCopy(writes), 50) / 1e6,
	}
}
