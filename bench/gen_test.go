package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
)

func drawOps(spec workloadSpec, seed int64, n int) [][]byte {
	g := newGenerator(spec, seed, "t")
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = g.Next(nil).Op
	}
	return ops
}

func TestSameSeedSameStream(t *testing.T) {
	for _, spec := range workloads {
		a, b := drawOps(spec, 7, 500), drawOps(spec, 7, 500)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: op %d differs between two generators of one seed: %q vs %q", spec.Name, i, clip(a[i]), clip(b[i]))
			}
		}
		c := drawOps(spec, 8, 500)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", spec.Name)
		}
	}
}

// The generator must not draw from the random source the client machine
// hands it: that one is seeded from the wall clock.
func TestGeneratorIgnoresRuntimeRand(t *testing.T) {
	spec, _ := workloadByName("mixed_zipf")
	g := newGenerator(spec, 3, "t")
	want := drawOps(spec, 3, 100)
	for i := range want {
		if got := g.Next(nil).Op; !bytes.Equal(got, want[i]) {
			t.Fatalf("op %d: %q, want %q", i, clip(got), clip(want[i]))
		}
	}
}

func TestMixAndValueShape(t *testing.T) {
	for _, spec := range workloads {
		g := newGenerator(spec, 11, "t")
		reads, n := 0, 4000
		for i := 0; i < n; i++ {
			op := g.Next(nil)
			key := opKey(op.Op)
			if len(key) != len(keyName(0)) {
				t.Fatalf("%s: key %q", spec.Name, key)
			}
			if op.Read {
				reads++
				continue
			}
			value := op.Op[len("PUT ")+len(key)+1:]
			if len(value) != spec.ValueSize {
				t.Fatalf("%s: value of %d bytes, want %d", spec.Name, len(value), spec.ValueSize)
			}
			if !bytes.HasPrefix(value, append(append([]byte(nil), key...), '|')) || bytes.ContainsRune(value, ' ') {
				t.Fatalf("%s: value %q does not describe key %q", spec.Name, clip(value), key)
			}
		}
		if got := float64(reads) / float64(n); got < spec.ReadRatio-0.03 || got > spec.ReadRatio+0.03 {
			t.Errorf("%s: read share %.3f, want %.2f", spec.Name, got, spec.ReadRatio)
		}
		if g.issued.Load() != int64(n) {
			t.Errorf("%s: issued = %d, want %d", spec.Name, g.issued.Load(), n)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	share := func(name string) float64 {
		spec, _ := workloadByName(name)
		g := newGenerator(spec, 5, "t")
		hot, n := 0, 20000
		for i := 0; i < n; i++ {
			if g.nextKey() < 8 {
				hot++
			}
		}
		return float64(hot) / float64(n)
	}
	uniform, zipf := share("read_fast"), share("mixed_zipf")
	if uniform > 0.02 {
		t.Errorf("uniform: the 8 lowest keys draw %.3f of the operations, want about 8/1024", uniform)
	}
	if zipf < 0.3 {
		t.Errorf("zipf 1.1: the 8 hottest keys draw %.3f of the operations, want a clear skew", zipf)
	}
}

func TestValidateReply(t *testing.T) {
	pad := bytes.Repeat([]byte{'x'}, 128)
	k1, k2 := keyName(1), keyName(2)
	cases := []struct {
		op     string
		read   bool
		result string
		ok     bool
	}{
		{"PUT " + k1 + " v", false, "OK", true},
		{"PUT " + k1 + " v", false, "ERR malformed", false},
		{"GET " + k1, true, "VALUE " + string(preloadValue(k1, pad)), true},
		{"GET " + k1, true, "VALUE " + string(preloadValue(k2, pad)), false},
		{"GET " + k1, true, "NOTFOUND", false},
		{"GET " + k1, true, "VALUE " + k1, false},
	}
	for _, c := range cases {
		err := validateReply([]byte(c.op), c.read, []byte(c.result))
		if (err == nil) != c.ok {
			t.Errorf("%s -> %.20q: err = %v, want ok = %v", c.op, c.result, err, c.ok)
		}
	}
}

func TestPreloadedStoreHoldsEveryKey(t *testing.T) {
	spec, _ := workloadByName("write_small")
	s := preloadedStore(spec)()
	for _, i := range []int{0, spec.Keys / 2, spec.Keys - 1} {
		op := []byte("GET " + keyName(i))
		if err := validateReply(op, true, s.Execute(op)); err != nil {
			t.Errorf("key %d: %v", i, err)
		}
	}
}

// historyOf builds a sequential single-key history: each step is a PUT of a
// new value or a GET that returns the value of an earlier PUT (0: preload).
func historyOf(spec workloadSpec, key string, steps []int) []faultplane.Op {
	pad := bytes.Repeat([]byte{'x'}, spec.ValueSize)
	values := [][]byte{preloadValue(key, pad)}
	var ops []faultplane.Op
	for i, s := range steps {
		op := faultplane.Op{
			Client:  uint64(i),
			Seq:     1,
			Invoke:  time.Duration(2*i) * time.Millisecond,
			Respond: time.Duration(2*i+1) * time.Millisecond,
		}
		if s < 0 {
			v := appendValue(nil, key, "t", uint64(len(values)), pad)
			values = append(values, v)
			op.Operation = []byte(fmt.Sprintf("PUT %s %s", key, v))
			op.Result = []byte("OK")
		} else {
			op.Operation = []byte("GET " + key)
			op.Result = append([]byte("VALUE "), values[s]...)
		}
		ops = append(ops, op)
	}
	return ops
}

func TestSampledHistoryCheck(t *testing.T) {
	spec, _ := workloadByName("mixed_zipf")
	key := keyName(3)
	// preload read, write 1, read 1, write 2, read 2 — repeated far past the
	// checker's prefix, which must not trip it.
	var good []int
	for i := 0; i < 40; i++ {
		good = append(good, 2*i, -1, 2*i+1, -1)
	}
	if err := checkSampledHistory(spec, historyOf(spec, key, good)); err != nil {
		t.Errorf("linearizable history rejected: %v", err)
	}
	// A read of the preloaded value after a completed write is stale.
	if err := checkSampledHistory(spec, historyOf(spec, key, []int{0, -1, 1, 0})); err == nil {
		t.Error("stale read accepted")
	}
}
