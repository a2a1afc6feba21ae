package main

// Workload and metric catalogue. The names here are the benchmark's schema:
// BENCHMARK.json lists the same names (bench_test.go asserts the two agree)
// and later issues cite them, so they change only in a PR of their own.

import "time"

// workloadSpec describes one closed-loop traffic mix.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (which layer it loads
	// or bypasses).
	Why string

	// Keys is the preloaded key-space size; ValueSize the PUT value length
	// in bytes; ReadRatio the fraction of GETs.
	Keys      int
	ValueSize int
	ReadRatio float64

	// ZipfS, when above 1, draws keys from a zipf distribution with that
	// exponent; zero draws uniformly.
	ZipfS float64

	// Window is the length of the stretch of a run a timing metric describes
	// (see pool): long enough to span the program's own cycles — about two
	// checkpoint intervals on write_bigstate, many on the others — and short
	// enough that some stretch of a run is free of the host's disturbances.
	Window time.Duration
}

// workloads are the four fixed workloads, in reporting order.
var workloads = []workloadSpec{
	{
		Name:      "write_small",
		Why:       "100% PUT of 128 B over 1024 keys: ordering does all the work, per-message costs dominate, checkpoints are negligible",
		Keys:      1024,
		ValueSize: 128,
		Window:    100 * time.Millisecond,
	},
	{
		Name:      "write_bigstate",
		Why:       "100% PUT of 4 KiB over 8192 keys (32 MiB per replica): per-byte crypto and the O(state) checkpoint dominate",
		Keys:      8192,
		ValueSize: 4096,
		Window:    1500 * time.Millisecond,
	},
	{
		Name:      "read_fast",
		Why:       "100% GET of 128 B values, uniform: bypasses ordering, loads the Troxy cache, cache-query exchange and secure channel",
		Keys:      1024,
		ValueSize: 128,
		ReadRatio: 1,
		Window:    100 * time.Millisecond,
	},
	{
		Name:      "mixed_zipf",
		Why:       "90% GET / 10% PUT, zipf 1.1: writes beside reads, so invalidations, fast-read fall-backs and monitor switches show",
		Keys:      1024,
		ValueSize: 128,
		ReadRatio: 0.9,
		ZipfS:     1.1,
		Window:    100 * time.Millisecond,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen (per-layer metrics have none).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the metrics a user of the deployment would see, measured with
// tracing off. fail_ratio is reported per layer and through the result line's
// attempted/failed counts instead: it is 0 on every correct run and a
// regression bound relative to 0 is meaningless. lat_p99_ms is per layer too:
// no statistic of the tail repeats within a bound on a shared host (README).
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"heap_live_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists every per-layer metric of a traced run: counters read from
// the program's public accessors, span-derived busy times and stages, and
// single-goroutine primitives.
var perLayer = []metricSpec{
	// Counters (untraced repetition of the traced run).
	{"fail_ratio", "1", "lower", 0},
	{"lat_p99_ms", "ms", "lower", 0},
	{"enclave.ecalls_per_op", "count", "lower", 0},
	{"enclave.copied_bytes_per_op", "B", "lower", 0},
	{"hybster.reqs_per_batch", "count", "higher", 0},
	{"hybster.batches_per_kop", "count", "lower", 0},
	{"hybster.window_stalls_per_kop", "count", "lower", 0},
	{"hybster.checkpoints", "count", "lower", 0},
	{"hybster.rejected_certs", "count", "lower", 0},
	{"realnet.frames_per_flush", "count", "higher", 0},
	{"realnet.drops", "count", "lower", 0},
	{"troxy.fast_read_ratio", "1", "higher", 0},
	{"troxy.fast_read_fell_ratio", "1", "lower", 0},
	{"troxy.cache_hit_ratio", "1", "higher", 0},
	{"troxy.invalidations_per_write", "count", "lower", 0},
	{"troxy.bad_replies", "count", "lower", 0},
	{"legacyclient.retries", "count", "lower", 0},
	{"replica.bad_macs", "count", "lower", 0},

	// Spans (traced repetition).
	{"legacyclient.busy_us_per_op", "us", "lower", 0},
	{"replica.self_us_per_op", "us", "lower", 0},
	{"troxy.busy_us_per_op", "us", "lower", 0},
	{"tcounter.busy_us_per_op", "us", "lower", 0},
	{"app.exec_us_per_op", "us", "lower", 0},
	{"app.snapshot_us_per_op", "us", "lower", 0},
	{"realnet.residual_us_per_op", "us", "lower", 0},
	{"trace.cpu_us_per_op", "us", "lower", 0},
	{"hybster.checkpoint_stall_ms", "ms", "lower", 0},
	{"replica.msgs_per_op", "count", "lower", 0},
	{"replica.bytes_per_op", "B", "lower", 0},
	{"realnet.mailbox_wait_us", "us", "lower", 0},
	{"stage.ingress_ms", "ms", "lower", 0},
	{"stage.troxy_in_ms", "ms", "lower", 0},
	{"stage.order_ms", "ms", "lower", 0},
	{"stage.vote_ms", "ms", "lower", 0},
	{"stage.egress_ms", "ms", "lower", 0},
	{"trace.lat_mean_ms", "ms", "lower", 0},
	{"charge.mac_per_op", "count", "lower", 0},
	{"charge.mac_bytes_per_op", "B", "lower", 0},
	{"charge.aead_bytes_per_op", "B", "lower", 0},
	{"charge.hash_bytes_per_op", "B", "lower", 0},
	{"charge.transition_per_op", "count", "lower", 0},
	{"legacyclient.read_p50_ms", "ms", "lower", 0},
	{"legacyclient.write_p50_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "1", "higher", 0},

	// Primitives (single goroutine, direct calls to public functions).
	{"msg.append_frame_ns_128", "ns", "lower", 0},
	{"msg.decode_envelope_ns_128", "ns", "lower", 0},
	{"msg.batch_digest_ns_16x128", "ns", "lower", 0},
	{"authn.seal_mac_ns_128", "ns", "lower", 0},
	{"authn.seal_mac_ns_4k", "ns", "lower", 0},
	{"authn.verify_mac_ns_128", "ns", "lower", 0},
	{"authn.verify_mac_ns_4k", "ns", "lower", 0},
	{"securechannel.seal_ns_128", "ns", "lower", 0},
	{"securechannel.seal_ns_4k", "ns", "lower", 0},
	{"securechannel.open_ns_128", "ns", "lower", 0},
	{"securechannel.open_ns_4k", "ns", "lower", 0},
	{"securechannel.seal_frames16_ns_128", "ns", "lower", 0},
	{"securechannel.handshake_us", "us", "lower", 0},
	{"enclave.ecall_roundtrip_ns", "ns", "lower", 0},
	{"tcounter.certify_ns", "ns", "lower", 0},
	{"tcounter.verify_ns", "ns", "lower", 0},
	{"troxy.cache_get_ns", "ns", "lower", 0},
	{"troxy.cache_put_ns", "ns", "lower", 0},
	{"app.exec_put_ns_128", "ns", "lower", 0},
	{"app.exec_put_ns_4k", "ns", "lower", 0},
	{"app.exec_get_ns", "ns", "lower", 0},
	{"app.snapshot_iter_ms_32m", "ms", "lower", 0},
	{"hybster.round_us_b1", "us", "lower", 0},
	{"hybster.round_us_b16", "us", "lower", 0},
	{"simnet.msgs_per_wall_s", "1/s", "higher", 0},
	{"simnet.calib_mac_1k", "1", "lower", 0},
	{"simnet.calib_aead_1k", "1", "lower", 0},
	{"simnet.calib_hash_1k", "1", "lower", 0},
	{"simnet.calib_transition", "1", "lower", 0},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to measured values.
type metricSet map[string]metric

// fill builds a metricSet holding exactly the metrics of specs from values;
// it reports the first name values lacks.
func fill(specs []metricSpec, values map[string]float64) (metricSet, string) {
	out := make(metricSet, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, s.Name
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, ""
}
