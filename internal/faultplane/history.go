package faultplane

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Op is one completed client operation as observed at the client: the
// invocation/response window, the operation bytes and the result the client
// accepted. The chaos suite collects these through legacyclient's Observe
// hook and checks them for linearizability against the store protocol.
type Op struct {
	Client          uint64
	Seq             uint64
	Invoke, Respond time.Duration
	Operation       []byte
	Result          []byte
}

// History is a concurrency-safe collector of completed operations. Its
// Observe method matches legacyclient.Config.Observe.
type History struct {
	mu  sync.Mutex
	ops []Op
}

// Observe records one completed operation, copying the byte slices.
func (h *History) Observe(client, seq uint64, op []byte, read bool, invoked, responded time.Duration, result []byte) {
	_ = read
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops = append(h.ops, Op{
		Client:    client,
		Seq:       seq,
		Invoke:    invoked,
		Respond:   responded,
		Operation: append([]byte(nil), op...),
		Result:    append([]byte(nil), result...),
	})
}

// Ops returns a copy of the recorded history.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Op(nil), h.ops...)
}

// Len returns the number of recorded operations.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ops)
}

// keyOp is one operation projected onto a single key of the store protocol.
type keyOp struct {
	invoke, respond time.Duration
	verb            byte // 'G'et, 'P'ut, 'D'el
	value           string
	result          string
	client          uint64
	seq             uint64
}

// parseStoreOp projects an operation onto (key, keyOp) following the
// app/store text protocol. Operations the store would reject are skipped
// (ok=false): they never touch state and their error reply carries no
// ordering information.
func parseStoreOp(op Op) (key string, ko keyOp, ok bool) {
	fields := strings.Fields(string(op.Operation))
	ko = keyOp{invoke: op.Invoke, respond: op.Respond, result: string(op.Result),
		client: op.Client, seq: op.Seq}
	switch {
	case len(fields) == 2 && fields[0] == "GET":
		ko.verb = 'G'
	case len(fields) == 3 && fields[0] == "PUT":
		ko.verb, ko.value = 'P', fields[2]
	case len(fields) == 2 && fields[0] == "DEL":
		ko.verb = 'D'
	default:
		return "", keyOp{}, false
	}
	return fields[1], ko, true
}

// maxLinOps bounds the per-key search (op sets are encoded as uint64 masks).
const maxLinOps = 63

// CheckLinearizable verifies that ops is a linearizable history of the store
// protocol, checking each key independently (operations on distinct keys
// commute; per-key registers compose). It returns nil if a valid
// linearization exists for every key, or an error naming the first
// unlinearizable key.
//
// The search follows Wing & Gong: an operation may be linearized next only
// if no unlinearized operation responded before it was invoked; visited
// (operation-set, register-state) pairs are memoized.
func CheckLinearizable(ops []Op) error {
	byKey := make(map[string][]keyOp)
	for _, op := range ops {
		key, ko, ok := parseStoreOp(op)
		if !ok {
			continue
		}
		byKey[key] = append(byKey[key], ko)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := checkKey(k, byKey[k]); err != nil {
			return err
		}
	}
	return nil
}

func checkKey(key string, kops []keyOp) error {
	if len(kops) > maxLinOps {
		return fmt.Errorf("faultplane: key %q has %d ops, checker bound is %d", key, len(kops), maxLinOps)
	}
	// Register states: 0 = absent, i+1 = i-th distinct written value.
	values := []string{}
	valueIdx := map[string]int{}
	for _, ko := range kops {
		if ko.verb == 'P' {
			if _, ok := valueIdx[ko.value]; !ok {
				valueIdx[ko.value] = len(values) + 1
				values = append(values, ko.value)
			}
		}
	}

	// apply linearizes ko against register state s, returning the next state
	// and whether the observed result is consistent.
	apply := func(s int, ko *keyOp) (int, bool) {
		switch ko.verb {
		case 'G':
			want := "NOTFOUND"
			if s > 0 {
				want = "VALUE " + values[s-1]
			}
			return s, ko.result == want
		case 'P':
			return valueIdx[ko.value], ko.result == "OK"
		default: // 'D'
			want := "OK"
			if s == 0 {
				want = "NOTFOUND"
			}
			return 0, ko.result == want
		}
	}

	full := uint64(1)<<len(kops) - 1
	// The memo is keyed on the pair itself: packing it into one integer
	// (mask × states + state) overflows well below maxLinOps, and colliding
	// pairs made linearizable histories fail.
	type visit struct {
		mask  uint64
		state int
	}
	visited := make(map[visit]bool)
	var dfs func(mask uint64, state int) bool
	dfs = func(mask uint64, state int) bool {
		if mask == full {
			return true
		}
		if visited[visit{mask, state}] {
			return false
		}
		visited[visit{mask, state}] = true
		// An op is eligible next iff no other unlinearized op responded
		// before it was invoked.
		minRespond := time.Duration(1<<63 - 1)
		for i := range kops {
			if mask&(1<<i) == 0 && kops[i].respond < minRespond {
				minRespond = kops[i].respond
			}
		}
		for i := range kops {
			if mask&(1<<i) != 0 || kops[i].invoke > minRespond {
				continue
			}
			next, ok := apply(state, &kops[i])
			if !ok {
				continue
			}
			if dfs(mask|1<<i, next) {
				return true
			}
		}
		return false
	}
	if !dfs(0, 0) {
		return fmt.Errorf("faultplane: history of key %q is not linearizable (%d ops, e.g. client %d seq %d %c -> %q)",
			key, len(kops), kops[0].client, kops[0].seq, kops[0].verb, kops[0].result)
	}
	return nil
}
