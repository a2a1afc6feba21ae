package experiments

import (
	root "github.com/troxy-bft/troxy"
)

// Ablation isolates the contribution of each Troxy design choice the paper
// argues for, beyond the BL/ctroxy/etroxy comparison of Fig. 6:
//
//   - the fast-read cache (off / on without the conflict monitor / on with
//     it) under a WAN read-heavy workload — the Section IV mechanism;
//   - the server-side reply voter alone (fast reads off, so the only Troxy
//     benefit is the single WAN reply) versus the baseline client;
//   - the baseline's client request protocol (leader-only versus
//     PBFT-style broadcast to all replicas), quantifying how much client
//     bandwidth the transparent design saves on the uplink.
func Ablation(opt Options) []*Table {
	warmup, measure := opt.measureDurations(true)
	clients := 1024
	if opt.Quick {
		clients = 256
	}

	cacheTable := &Table{
		ID:      "ablation-cache",
		Title:   "fast-read cache ablation (95% reads, 1 KiB replies, WAN)",
		Columns: []string{"configuration", "kops/s", "mean-lat(ms)", "fast-reads", "fallback-rate"},
	}
	type cfg struct {
		label       string
		fastReads   bool
		monitorOff  bool
		fullReplies bool
	}
	for _, v := range []cfg{
		{"voter only (cache off)", false, false, false},
		{"cache, monitor off", true, true, false},
		{"cache + conflict monitor", true, false, false},
		{"cache, full-reply exchange", true, false, true},
	} {
		opt.progress("ablation: %s ...", v.label)
		res := runMicro(microConfig{
			mode:           root.ETroxy,
			readRatio:      0.95,
			reqSize:        10,
			replySize:      1024,
			wan:            true,
			fastReads:      v.fastReads,
			monitorOff:     v.monitorOff,
			fullReplies:    v.fullReplies,
			clientsPerMach: clients,
			warmup:         warmup,
			measure:        measure,
			seed:           opt.seed(),
		})
		fast := "-"
		fall := "-"
		if v.fastReads {
			total := res.fastOK + res.fastFell + res.cacheMisses
			if total > 0 {
				fast = pct(float64(res.fastOK) / float64(total))
				fall = pct(float64(res.fastFell+res.cacheMisses) / float64(total))
			}
		}
		cacheTable.AddRow(v.label, kops(res.OpsPerSec), ms(res.Mean), fast, fall)
	}

	bcastTable := &Table{
		ID:      "ablation-client-protocol",
		Title:   "baseline client request distribution (4 KiB writes, WAN)",
		Columns: []string{"configuration", "kops/s", "mean-lat(ms)"},
		Notes: []string{
			"broadcast models PBFT-style clients that send each request to every replica;",
			"Troxy-backed clients always upload one copy to one replica",
		},
	}
	for _, broadcast := range []bool{false, true} {
		label := "leader-only requests"
		if broadcast {
			label = "broadcast requests (x N uplink)"
		}
		opt.progress("ablation: BL %s ...", label)
		res := runMicro(microConfig{
			mode:           root.Baseline,
			readRatio:      0,
			reqSize:        4096,
			replySize:      10,
			wan:            true,
			clientsPerMach: clients,
			warmup:         warmup,
			measure:        measure,
			seed:           opt.seed(),
			broadcast:      broadcast,
		})
		bcastTable.AddRow(label, kops(res.OpsPerSec), ms(res.Mean))
	}
	return []*Table{cacheTable, bcastTable}
}
