package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	root "github.com/troxy-bft/troxy"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must have a target.
	required := []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "batching", "commitlevel"}
	for _, name := range required {
		if _, ok := ByName(name); !ok {
			t.Errorf("missing experiment %q", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name resolved")
	}
	if len(Names()) < len(required) {
		t.Errorf("Names() = %v", Names())
	}
}

func TestTable1Content(t *testing.T) {
	tables := Table1(Options{})
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	tab := tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"BL", "Prophecy", "Troxy", "strong", "weak", "2f+1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"note"},
	}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), "long-column") || !strings.Contains(sb.String(), "note") {
		t.Errorf("formatted table: %q", sb.String())
	}
}

func TestRunMicroSmoke(t *testing.T) {
	// A tiny end-to-end run of the harness machinery itself.
	res := runMicro(microConfig{
		mode:           root.ETroxy,
		readRatio:      0.5,
		reqSize:        64,
		replySize:      64,
		fastReads:      true,
		clientsPerMach: 4,
		warmup:         50 * time.Millisecond,
		measure:        200 * time.Millisecond,
		seed:           1,
	})
	if res.Count == 0 {
		t.Fatal("harness measured zero operations")
	}
	if res.OpsPerSec <= 0 {
		t.Fatal("no throughput computed")
	}
}

func TestRunMicroDeterministic(t *testing.T) {
	run := func() microResult {
		return runMicro(microConfig{
			mode:           root.Baseline,
			readRatio:      0,
			reqSize:        64,
			replySize:      10,
			clientsPerMach: 4,
			warmup:         50 * time.Millisecond,
			measure:        200 * time.Millisecond,
			seed:           7,
		})
	}
	a, b := run(), run()
	if a.Count != b.Count || a.Mean != b.Mean || a.P99 != b.P99 {
		t.Errorf("same seed diverged: %+v vs %+v", a.Result, b.Result)
	}
}

func TestBatchingImprovesThroughput(t *testing.T) {
	// The deterministic simulator makes this a stable comparison, not a
	// flaky perf test: with enough closed-loop clients, batched ordering
	// must beat per-request ordering, and the metrics must show one
	// ordering round covering several requests.
	run := func(batch int) microResult {
		return runMicro(microConfig{
			mode:           root.Baseline,
			readRatio:      0,
			reqSize:        1024,
			replySize:      10,
			clientsPerMach: 32,
			warmup:         100 * time.Millisecond,
			measure:        400 * time.Millisecond,
			seed:           7,
			batchSize:      batch,
			batchDelay:     time.Millisecond,
		})
	}
	unbatched, batched := run(1), run(4)
	if unbatched.batches != unbatched.proposed {
		t.Errorf("batch=1 cut %d batches for %d requests, want one per request",
			unbatched.batches, unbatched.proposed)
	}
	if batched.batches == 0 || batched.proposed < 2*batched.batches {
		t.Errorf("batch=4 amortization too low: %d batches for %d requests",
			batched.batches, batched.proposed)
	}
	if batched.OpsPerSec <= unbatched.OpsPerSec {
		t.Errorf("batched throughput %.0f ops/s not above unbatched %.0f ops/s",
			batched.OpsPerSec, unbatched.OpsPerSec)
	}
}

func TestCommitLevelFastTierBeatsDurable(t *testing.T) {
	// Geo-replicated deterministic simulator: the leader's speculative
	// reply leaves at propose time, one inter-replica hop before any
	// durable reply exists, so with a pipelined window the fast tier's
	// median latency must be strictly lower under the same seed and load.
	// 32 clients a machine is the experiment's full-scale load; the loads
	// below it are held as well since replies travel in batches, because
	// from 16 on the fast tier's median depends on how the three origins'
	// client cohorts line up at the leader (EXPERIMENTS.md "Commit levels")
	// and a reply path that delays replies shifts that.
	for _, clients := range []int{16, 20, 24, 28, 32} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			run := func(fast bool) microResult {
				return runMicro(microConfig{
					mode:           root.ETroxy,
					readRatio:      0,
					reqSize:        1024,
					replySize:      10,
					clientsPerMach: clients,
					warmup:         100 * time.Millisecond,
					measure:        400 * time.Millisecond,
					seed:           7,
					batchSize:      64,
					batchDelay:     time.Millisecond,
					pipelineDepth:  4,
					fastCommit:     fast,
					interReplica:   commitGeoLatency,
				})
			}
			durable, fast := run(false), run(true)
			if durable.specAnswered != 0 {
				t.Errorf("durable tier speculated %d times", durable.specAnswered)
			}
			if fast.specAnswered == 0 {
				t.Fatalf("fast tier completed %d ops without speculating", fast.Count)
			}
			if fast.specRetracted != 0 {
				t.Errorf("fault-free run retracted %d speculations", fast.specRetracted)
			}
			if fast.specConfirmed == 0 {
				t.Error("no speculation was durably confirmed in the background")
			}
			if fast.P50 >= durable.P50 {
				t.Errorf("fast-tier p50 %v not below durable p50 %v", fast.P50, durable.P50)
			}
		})
	}
}

func TestFormattersStable(t *testing.T) {
	if kops(12345) != "12.3" {
		t.Errorf("kops = %q", kops(12345))
	}
	if ms(1500*time.Microsecond) != "1.50" {
		t.Errorf("ms = %q", ms(1500*time.Microsecond))
	}
	if pct(0.5) != "50%" {
		t.Errorf("pct = %q", pct(0.5))
	}
	if ratio(150, 100) != "+50%" || ratio(1, 0) != "n/a" {
		t.Errorf("ratio = %q / %q", ratio(150, 100), ratio(1, 0))
	}
	if sizeLabel(8192) != "8 KiB" || sizeLabel(256) != "256 B" {
		t.Errorf("sizeLabel = %q / %q", sizeLabel(8192), sizeLabel(256))
	}
}

// One seed must give one run. The cell is the one that used to differ from
// run to run: reads beside a few writes (so the op sizes differ and a shifted
// random stream shows), fast reads and the conflict monitor on. Each
// handshake used to shift its machine's stream by zero or one byte, so the
// cell has enough clients that two runs cannot shift both machines alike by
// chance.
func TestRunMicroReproduciblePerSeed(t *testing.T) {
	cfg := microConfig{
		mode:           root.ETroxy,
		readRatio:      0.99,
		reqSize:        10,
		replySize:      1024,
		keys:           16,
		fastReads:      true,
		clientsPerMach: 64,
		warmup:         50 * time.Millisecond,
		measure:        150 * time.Millisecond,
		seed:           42,
	}
	first, second := runMicro(cfg), runMicro(cfg)
	if first.Count == 0 || first.fastOK == 0 {
		t.Fatalf("run exercised nothing: %+v", first)
	}
	if first != second {
		t.Errorf("two runs at seed %d differ:\n%+v\n%+v", cfg.seed, first, second)
	}

	// A second seed on the path the first never takes: with the replicas a
	// cache-query round trip apart that outlasts the query timeout, every
	// fast read expires, dozens in one Tick, and falls back to ordering in
	// the order Tick hands them over.
	slow := cfg
	slow.seed = 7
	slow.interReplica = 150 * time.Millisecond // round trip 300 ms, timeout 250 ms
	slow.warmup = time.Second                  // first reads are ordered and fill the caches
	slow.measure = 2 * time.Second
	first, second = runMicro(slow), runMicro(slow)
	if first.Count == 0 || first.fastFell == 0 {
		t.Fatalf("no fast read timed out: %+v", first)
	}
	if first != second {
		t.Errorf("two runs at seed %d differ:\n%+v\n%+v", slow.seed, first, second)
	}
}

// The HTTP workload draws an index into the path list, so the list must not
// come out in map order.
func TestHTTPPagesOrderIsFixed(t *testing.T) {
	_, first := httpPages()
	for i := 0; i < 20; i++ {
		if _, again := httpPages(); !slices.Equal(again, first) {
			t.Fatalf("httpPages listed %v, then %v", first, again)
		}
	}
}
