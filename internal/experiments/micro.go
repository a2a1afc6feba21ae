package experiments

import (
	"fmt"
	"time"

	root "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/bftclient"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// microConfig describes one microbenchmark run (Sections VI-C1..C3): three
// replicas, two client machines, the configurable-size echo service.
type microConfig struct {
	mode      root.Mode
	readRatio float64
	reqSize   int
	replySize int
	keys      uint64
	wan       bool

	fastReads      bool // Troxy modes: enable the fast-read cache
	monitorOff     bool // disable the conflict monitor (fig10 "fast read" bar)
	fullReplies    bool // base cache-exchange variant (full entries, no hash opt)
	readOpt        bool // baseline: PBFT-like direct reads
	broadcast      bool // baseline: clients send each request to every replica
	clientsPerMach int
	warmup         time.Duration
	measure        time.Duration
	seed           int64

	// Leader batching knobs (zero: order each request individually).
	batchSize  int
	batchDelay time.Duration

	// pipelineDepth bounds the leader's in-flight batch window (zero: the
	// unpipelined legacy configuration with no window limit).
	pipelineDepth int

	// fastCommit opts every client into the crash-tolerant commit tier:
	// replicas answer at PREPARE time with counter-certified speculative
	// replies and the durable COMMIT round settles in the background.
	fastCommit bool

	// interReplica, when positive, replaces the LAN latency on the links
	// between replicas (both directions) to model a geo-replicated group;
	// client links keep their configured latency.
	interReplica time.Duration
}

// microResult aggregates a run's measurements.
type microResult struct {
	workload.Result

	// Troxy-side counters (summed over replicas).
	fastOK, fastFell, cacheMisses, modeSwitches uint64

	// Ordering counters (summed over replicas; Proposed/Batches only ever
	// advance on leaders, so the sums are the leader-side totals).
	proposed, batches uint64

	// Commit-tier counters (summed over replicas).
	specAnswered, specConfirmed, specRetracted uint64

	// Baseline client counters.
	directOK, conflicts uint64

	// net is the simulator's delivery counters at the end of the run.
	net simnet.Stats
}

// conflictRate returns the fraction of optimized reads that had to be
// re-processed (the quantity Fig. 10 reports).
func (r microResult) conflictRate(mode root.Mode) float64 {
	switch mode {
	case root.Baseline:
		total := r.directOK + r.conflicts
		if total == 0 {
			return 0
		}
		return float64(r.conflicts) / float64(total)
	default:
		total := r.fastOK + r.fastFell
		if total == 0 {
			return 0
		}
		return float64(r.fastFell) / float64(total)
	}
}

const (
	machineA msg.NodeID = 100
	machineB msg.NodeID = 101
)

// runMicro executes one microbenchmark configuration on the simulator.
func runMicro(cfg microConfig) microResult {
	if cfg.clientsPerMach == 0 {
		cfg.clientsPerMach = 128
	}
	if cfg.keys == 0 {
		cfg.keys = 128
	}

	threshold := 0.5
	if cfg.monitorOff {
		threshold = 1.1 // a fallback fraction can never reach it
	}

	cluster, err := root.NewCluster(root.ClusterConfig{
		Mode:               cfg.mode,
		App:                app.NewBenchFactory(cfg.replySize),
		Classify:           app.BenchIsRead,
		FastReads:          cfg.fastReads,
		Seed:               cfg.seed,
		CheckpointInterval: 256,
		ViewChangeTimeout:  30 * time.Second, // no faults in throughput runs
		TickInterval:       25 * time.Millisecond,
		QueryTimeout:       250 * time.Millisecond,
		MonitorThreshold:   threshold,
		ProbeInterval:      500 * time.Millisecond,
		FullCacheReplies:   cfg.fullReplies,
		BatchSize:          cfg.batchSize,
		BatchDelay:         cfg.batchDelay,
		PipelineDepth:      cfg.pipelineDepth,
		CommitLevels:       cfg.fastCommit,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: cluster: %v", err))
	}

	net := simnet.New(cfg.seed, simnet.DefaultCostModel())
	net.SetDefaultLink(simnet.LANLatency)
	cluster.Attach(net)

	if cfg.interReplica > 0 {
		lat := simnet.FixedLatency(cfg.interReplica)
		for _, a := range cluster.ReplicaIDs() {
			for _, b := range cluster.ReplicaIDs() {
				if a != b {
					net.SetLink(a, b, lat)
				}
			}
		}
	}

	machines := []msg.NodeID{machineA, machineB}
	if cfg.wan {
		for _, m := range machines {
			for _, r := range cluster.ReplicaIDs() {
				net.SetLink(m, r, simnet.WANLatency)
			}
		}
	}

	rec := workload.NewRecorder()
	gen := workload.BenchGen{
		RequestSize: cfg.reqSize,
		Keys:        cfg.keys,
		ReadRatio:   cfg.readRatio,
	}

	var bcms []*bftclient.Machine
	var lcms []*legacyclient.Machine
	for i, m := range machines {
		first := uint64(10000 * (i + 1))
		if cfg.mode == root.Baseline {
			bc := bftclient.New(bftclient.Config{
				Machine:       m,
				Clients:       cfg.clientsPerMach,
				FirstClientID: first,
				N:             cluster.Config.N,
				F:             cluster.Config.F,
				Directory:     cluster.Directory,
				Gen:           gen,
				Rec:           rec,
				ReadOpt:       cfg.readOpt,
				Broadcast:     cfg.broadcast,
				Timeout:       10 * time.Second,
			})
			bcms = append(bcms, bc)
			net.Attach(m, bc)
			continue
		}
		// Troxy modes: legacy clients spread across all replicas.
		replicas := rotated(cluster.ReplicaIDs(), i)
		lc := legacyclient.New(legacyclient.Config{
			Machine:       m,
			Clients:       cfg.clientsPerMach,
			FirstClientID: first,
			Replicas:      replicas,
			ServerPub:     cluster.ServerPub,
			Gen:           gen,
			Rec:           rec,
			FastCommit:    cfg.fastCommit,
			Timeout:       10 * time.Second,
		})
		lcms = append(lcms, lc)
		net.Attach(m, lc)
	}

	net.Run(cfg.warmup)
	rec.Begin(net.Now())
	net.Run(cfg.warmup + cfg.measure)
	rec.End(net.Now())

	res := microResult{Result: rec.Snapshot(net.Now()), net: net.Stats()}
	for i := range cluster.Replicas {
		ts := cluster.TroxyStats(i)
		res.fastOK += ts.FastReadOK
		res.fastFell += ts.FastReadFell
		res.cacheMisses += ts.CacheMisses
		res.modeSwitches += ts.ModeSwitches
		res.specAnswered += ts.SpecAnswered
		res.specConfirmed += ts.SpecConfirmed
		res.specRetracted += ts.SpecRetracted
		hm := cluster.Replicas[i].Core().Metrics()
		res.proposed += hm.Proposed
		res.batches += hm.Batches
	}
	for _, bc := range bcms {
		st := bc.Stats()
		res.directOK += st.DirectOK
		res.conflicts += st.Conflicts
	}
	return res
}

// rotated returns ids rotated by k so each client machine spreads its
// connections differently.
func rotated(ids []msg.NodeID, k int) []msg.NodeID {
	out := make([]msg.NodeID, len(ids))
	for i := range ids {
		out[i] = ids[(i+k)%len(ids)]
	}
	return out
}

// payloadSweep is the request/reply size axis the paper sweeps.
var payloadSweep = []int{256, 1024, 4096, 8192}

// Fig6 reproduces Figure 6: totally ordered write requests of 256 B..8 KiB
// (10 B replies) in the local network, comparing BL, ctroxy and etroxy.
func Fig6(opt Options) []*Table { return figWrites(opt, false) }

// Fig7 reproduces Figure 7: the same sweep with 100±20 ms WAN delay on the
// client links.
func Fig7(opt Options) []*Table { return figWrites(opt, true) }

func figWrites(opt Options, wan bool) []*Table {
	id, scenario := "fig6", "local network"
	if wan {
		id, scenario = "fig7", "WAN (100±20 ms client links)"
	}
	warmup, measure := opt.measureDurations(wan)
	clients := 128
	if wan {
		clients = 1024 // closed loop across 100 ms RTT needs depth
	}
	if opt.Quick {
		clients /= 4
	}

	t := &Table{
		ID:      id,
		Title:   "totally ordered writes, " + scenario,
		Columns: []string{"request", "system", "kops/s", "mean-lat(ms)", "p90(ms)", "vs BL"},
		Notes: []string{
			"reply size 10 B; closed-loop clients on two machines",
		},
	}
	for _, size := range payloadSweep {
		var blThr float64
		for _, mode := range []root.Mode{root.Baseline, root.CTroxy, root.ETroxy} {
			opt.progress("%s: %s %s ...", id, sizeLabel(size), mode)
			res := runMicro(microConfig{
				mode:           mode,
				readRatio:      0,
				reqSize:        size,
				replySize:      10,
				wan:            wan,
				clientsPerMach: clients,
				warmup:         warmup,
				measure:        measure,
				seed:           opt.seed(),
			})
			if mode == root.Baseline {
				blThr = res.OpsPerSec
			}
			t.AddRow(sizeLabel(size), mode.String(), kops(res.OpsPerSec),
				ms(res.Mean), ms(res.P90), ratio(res.OpsPerSec, blThr))
		}
	}
	return []*Table{t}
}

// Fig8 reproduces Figure 8: read-only requests (10 B) with reply sizes
// 256 B..8 KiB in the local network. The baseline uses the PBFT-like read
// optimization; Troxy uses the fast-read cache.
func Fig8(opt Options) []*Table { return figReads(opt, false) }

// Fig9 reproduces Figure 9: the same read sweep under WAN delay.
func Fig9(opt Options) []*Table { return figReads(opt, true) }

func figReads(opt Options, wan bool) []*Table {
	id, scenario := "fig8", "local network"
	if wan {
		id, scenario = "fig9", "WAN (100±20 ms client links)"
	}
	warmup, measure := opt.measureDurations(wan)
	clients := 256
	if wan {
		// Enough closed-loop depth that the baseline's f+1 reply transfers
		// press on the client machines' NICs, as in the paper's testbed.
		clients = 3072
	}
	if opt.Quick {
		clients /= 4
	}

	t := &Table{
		ID:      id,
		Title:   "read-only requests, " + scenario,
		Columns: []string{"reply", "system", "kops/s", "mean-lat(ms)", "fast-reads", "vs BL"},
		Notes: []string{
			"request size 10 B; BL = PBFT-like read optimization (all replies must match)",
		},
	}
	for _, size := range payloadSweep {
		var blThr float64
		for _, mode := range []root.Mode{root.Baseline, root.ETroxy} {
			opt.progress("%s: %s %s ...", id, sizeLabel(size), mode)
			res := runMicro(microConfig{
				mode:           mode,
				readRatio:      1.0,
				reqSize:        10,
				replySize:      size,
				wan:            wan,
				fastReads:      mode != root.Baseline,
				readOpt:        mode == root.Baseline,
				clientsPerMach: clients,
				warmup:         warmup,
				measure:        measure,
				seed:           opt.seed(),
			})
			if mode == root.Baseline {
				blThr = res.OpsPerSec
			}
			fastShare := "-"
			if total := res.fastOK + res.fastFell + res.cacheMisses; total > 0 {
				fastShare = pct(float64(res.fastOK) / float64(total))
			}
			t.AddRow(sizeLabel(size), mode.String(), kops(res.OpsPerSec),
				ms(res.Mean), fastShare, ratio(res.OpsPerSec, blThr))
		}
	}
	return []*Table{t}
}
