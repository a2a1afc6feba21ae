package main

import (
	"bytes"
	"sort"

	"github.com/troxy-bft/troxy/internal/faultplane"
)

// A traced run records, for sampledKeys keys, the first sampledOpsPerKey
// completed operations each and checks them for linearizability. The checker
// looks at a prefix of linPrefixOps operations; recording far beyond it makes
// sure every operation that was in flight at the prefix's end is there.
const (
	sampledKeys      = 16
	sampledOpsPerKey = 1024
	linPrefixOps     = 48
)

// sampleKeys draws the keys whose history a traced run records, from the
// workload's own key distribution (so a skewed workload samples hot keys),
// each mapped to the number of operations recorded so far.
func sampleKeys(spec workloadSpec, seed int64) map[string]int {
	g := newGenerator(spec, seed^0x5a17, "")
	sample := make(map[string]int, sampledKeys)
	for tries := 0; len(sample) < sampledKeys && tries < 64*sampledKeys; tries++ {
		sample[g.keys[g.nextKey()]] = 0
	}
	return sample
}

// checkSampledHistory checks the recorded operations of each sampled key for
// linearizability. The checker accepts at most 63 operations per key, and its
// memo key (operation mask x register state, in a uint64) only stays
// collision-free well below that, so each key is checked on a prefix of
// linPrefixOps operations of its history: a synthetic PUT of the preloaded
// value, the operations that responded by a cut-off time T, and the PUTs
// invoked before T and still in flight (they may already have taken effect).
// GETs in flight at T are dropped — a read changes nothing — and every
// operation invoked after T is linearized after every kept one that observed
// state, so the prefix of a linearizable history is linearizable.
func checkSampledHistory(spec workloadSpec, ops []faultplane.Op) error {
	const maxOps = linPrefixOps - 1 // less the synthetic preload PUT
	pad := bytes.Repeat([]byte{'x'}, spec.ValueSize)
	byKey := make(map[string][]faultplane.Op)
	for _, op := range ops {
		k := string(opKey(op.Operation))
		byKey[k] = append(byKey[k], op)
	}
	for key, kops := range byKey {
		sort.Slice(kops, func(i, j int) bool { return kops[i].Respond < kops[j].Respond })
		var prefix []faultplane.Op
		for n := min(len(kops), maxOps); n > 0; n-- {
			cut := kops[n-1].Respond
			prefix = append(prefix[:0], kops[:n]...)
			for _, op := range kops[n:] {
				if op.Invoke <= cut && bytes.HasPrefix(op.Operation, []byte("PUT ")) {
					prefix = append(prefix, op)
				}
			}
			if len(prefix) <= maxOps {
				break
			}
		}
		preload := faultplane.Op{
			Invoke:    -2,
			Respond:   -1,
			Operation: append([]byte("PUT "+key+" "), preloadValue(key, pad)...),
			Result:    []byte("OK"),
		}
		if err := faultplane.CheckLinearizable(append([]faultplane.Op{preload}, prefix...)); err != nil {
			return err
		}
	}
	return nil
}
