package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/workload"
)

// generator is the seeded workload generator: it draws keys (uniform or
// zipf), mixes reads and writes, and builds self-describing PUT values
// "<key>|<tag>|<n>|<pad>" whose embedded key lets every later GET be checked
// against the key it asked for, and whose draw index n makes every written
// value unique (the linearizability checker needs that).
//
// It owns its random source, seeded from the benchmark's -seed argument; the
// rand.Rand the client machine passes to Next (the runtime's, time-seeded) is
// ignored, so the same seed always yields the same operation stream.
//
// workload.Generator does not tell Next which logical client is asking, so
// the value cannot embed client and sequence number; the draw index plays
// that role. Next runs on the client machine's single handler goroutine.
type generator struct {
	spec workloadSpec
	tag  string
	rng  *rand.Rand
	zipf *rand.Zipf
	keys []string
	pad  []byte

	// issued counts draws (it is the draw index n of the values); the harness
	// reads it from another goroutine to know how many operations were
	// attempted.
	issued atomic.Int64
}

var _ workload.Generator = (*generator)(nil)

// keyName is the fixed-width name of key i.
func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

func newGenerator(spec workloadSpec, seed int64, tag string) *generator {
	g := &generator{
		spec: spec,
		tag:  tag,
		rng:  rand.New(rand.NewSource(seed)),
		keys: make([]string, spec.Keys),
		pad:  bytes.Repeat([]byte{'x'}, spec.ValueSize),
	}
	for i := range g.keys {
		g.keys[i] = keyName(i)
	}
	if spec.ZipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, spec.ZipfS, 1, uint64(spec.Keys-1))
	}
	return g
}

// nextKey draws a key index.
func (g *generator) nextKey() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(len(g.keys))
}

// Next implements workload.Generator.
func (g *generator) Next(*rand.Rand) workload.Op {
	n := uint64(g.issued.Add(1))
	key := g.keys[g.nextKey()]
	if g.spec.ReadRatio >= 1 || (g.spec.ReadRatio > 0 && g.rng.Float64() < g.spec.ReadRatio) {
		return workload.Op{Op: []byte("GET " + key), Read: true}
	}
	op := make([]byte, 0, 5+len(key)+g.spec.ValueSize)
	op = append(op, "PUT "...)
	op = append(op, key...)
	op = append(op, ' ')
	op = appendValue(op, key, g.tag, n, g.pad)
	return workload.Op{Op: op}
}

// appendValue appends the self-describing value for key, exactly len(pad)
// bytes long (the header is never longer than the smallest value size used).
func appendValue(dst []byte, key, tag string, n uint64, pad []byte) []byte {
	start := len(dst)
	dst = append(dst, key...)
	dst = append(dst, '|')
	dst = append(dst, tag...)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, n, 10)
	dst = append(dst, '|')
	if used := len(dst) - start; used < len(pad) {
		dst = append(dst, pad[used:]...)
	}
	return dst
}

// preloadValue is the value key holds before the first generated write.
func preloadValue(key string, pad []byte) []byte {
	return appendValue(nil, key, "init", 0, pad)
}

// preloadedStore returns an app.Factory whose stores already hold every key
// of spec: each replica's store executes the same PUTs before the cluster
// exists, so the running program only ever sees generated inputs.
func preloadedStore(spec workloadSpec) app.Factory {
	return func() app.Application {
		s := app.NewStore()
		pad := bytes.Repeat([]byte{'x'}, spec.ValueSize)
		for i := 0; i < spec.Keys; i++ {
			key := keyName(i)
			op := append([]byte("PUT "+key+" "), preloadValue(key, pad)...)
			s.Execute(op)
		}
		return s
	}
}

// opKey extracts the key of a generated operation ("GET k" or "PUT k v").
func opKey(op []byte) []byte {
	if len(op) < 5 {
		return nil
	}
	rest := op[4:]
	if i := bytes.IndexByte(rest, ' '); i >= 0 {
		return rest[:i]
	}
	return rest
}

// validateReply checks the result a client accepted for op: OK for a PUT; for
// a GET a VALUE whose embedded key is the key asked for (never NOTFOUND:
// every key is preloaded).
func validateReply(op []byte, read bool, result []byte) error {
	if !read {
		if string(result) != "OK" {
			return fmt.Errorf("PUT answered %q, want OK", clip(result))
		}
		return nil
	}
	key := opKey(op)
	value, ok := bytes.CutPrefix(result, []byte("VALUE "))
	if !ok {
		return fmt.Errorf("GET %s answered %q, want a VALUE", key, clip(result))
	}
	if !bytes.HasPrefix(value, key) || len(value) <= len(key) || value[len(key)] != '|' {
		return fmt.Errorf("GET %s answered a value of another key: %q", key, clip(value))
	}
	return nil
}

func clip(b []byte) []byte {
	if len(b) > 48 {
		return b[:48]
	}
	return b
}
