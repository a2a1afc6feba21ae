package enclave

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/troxy-bft/troxy/internal/testutil"
)

// TestRetainedArgumentIsOverwritten pins the rule Trusted documents, now that
// reuse makes it load-bearing: the copy-in buffer belongs to the call, and a
// handler that keeps its argument reads the next crossing's in it.
func TestRetainedArgumentIsOverwritten(t *testing.T) {
	tr := &echoTrusted{}
	_, e := launch(t, tr, nil)
	if _, err := e.ECall("echo", []byte("first call")); err != nil {
		t.Fatal(err)
	}
	kept := tr.argSeen
	if string(kept) != "first call" {
		t.Fatalf("handler saw %q", kept)
	}
	if _, err := e.ECall("set", []byte("NEXT")); err != nil {
		t.Fatal(err)
	}
	if string(kept[:4]) != "NEXT" {
		t.Errorf("kept argument reads %q after the next crossing; the copy-in buffer was not reused", kept)
	}
	// What the handler copied, it keeps.
	out, err := e.ECall("get", nil)
	if err != nil || string(out) != "NEXT" {
		t.Errorf("copied state = %q, %v", out, err)
	}
}

// TestResultsAreCopiedOutIntoDst covers the copy-out: a result that fits the
// caller's room lands there and a longer one does not, the room behind what
// was appended is left alone, and in neither case does the caller hold
// trusted memory.
func TestResultsAreCopiedOutIntoDst(t *testing.T) {
	tr := &echoTrusted{}
	_, e := launch(t, tr, nil)
	if _, err := e.ECall("set", []byte("trusted state")); err != nil {
		t.Fatal(err)
	}

	room := bytes.Repeat([]byte{0xEE}, 32)
	out, err := e.ECallAppend(room[:0], "get", nil)
	if err != nil || string(out) != "trusted state" {
		t.Fatalf("get = %q, %v", out, err)
	}
	if &out[0] != &room[0] {
		t.Error("a result that fits the caller's room did not land in it")
	}
	if !bytes.Equal(room[len(out):], bytes.Repeat([]byte{0xEE}, 32-len(out))) {
		t.Errorf("the room behind the result was written: %x", room[len(out):])
	}
	out[0] = 'X'
	if string(tr.volatile) != "trusted state" {
		t.Errorf("caller's result aliases trusted memory: %q", tr.volatile)
	}

	small := make([]byte, 0, 4)
	out, err = e.ECallAppend(small, "get", nil)
	if err != nil || string(out) != "trusted state" {
		t.Fatalf("get into short room = %q, %v", out, err)
	}
	if &out[0] == &small[:1][0] {
		t.Error("a result longer than the caller's room landed in it")
	}
	out[0] = 'X'
	if string(tr.volatile) != "trusted state" {
		t.Errorf("caller's result aliases trusted memory: %q", tr.volatile)
	}

	// An appended result follows what dst already held.
	out, err = e.ECallAppend([]byte("prefix:"), "get", nil)
	if err != nil || string(out) != "prefix:trusted state" {
		t.Errorf("append after a prefix = %q, %v", out, err)
	}
	// ECall is ECallAppend without room.
	out, err = e.ECall("get", nil)
	if err != nil || string(out) != "trusted state" {
		t.Errorf("ECall = %q, %v", out, err)
	}
}

// slotTrusted records, per call, the argument buffer it was handed, and holds
// the call open until released, so that two calls are inside at once.
type slotTrusted struct {
	entered chan []byte
	release chan struct{}
}

func (s *slotTrusted) ECalls() map[string]func([]byte) ([]byte, error) {
	return map[string]func([]byte) ([]byte, error){
		"hold": func(arg []byte) ([]byte, error) {
			s.entered <- arg
			<-s.release
			return arg, nil // read again after the other call has been copied in
		},
	}
}
func (*slotTrusted) OnStart(*Services)                 {}
func (*slotTrusted) Provision(map[string][]byte) error { return nil }

// TestConcurrentECallsHaveTheirOwnBuffers: with two thread slots, two ecalls
// that are inside at the same time never share a copy-in buffer, first time
// round or once the buffers are being reused. Run under -race (make race).
func TestConcurrentECallsHaveTheirOwnBuffers(t *testing.T) {
	tr := &slotTrusted{entered: make(chan []byte, 2), release: make(chan struct{})}
	p := NewPlatformWithKey([]byte("hw"))
	e, err := p.Launch(Definition{Name: "slots", CodeIdentity: "slots-v1", MaxThreads: 2}, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		args := [][]byte{bytes.Repeat([]byte{'a'}, 64), bytes.Repeat([]byte{'b'}, 64)}
		outs := make([][]byte, 2)
		var wg sync.WaitGroup
		for i := range args {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := e.ECall("hold", args[i])
				if err != nil {
					t.Errorf("round %d, call %d: %v", round, i, err)
				}
				outs[i] = out
			}()
		}
		first, second := <-tr.entered, <-tr.entered
		if &first[0] == &second[0] {
			t.Errorf("round %d: two concurrent ecalls were handed the same copy-in buffer", round)
		}
		if _, err := e.ECall("hold", nil); !errors.Is(err, ErrTooManyThreads) {
			t.Errorf("round %d: third concurrent ecall error = %v", round, err)
		}
		close(tr.release)
		wg.Wait()
		tr.release = make(chan struct{})
		for i := range args {
			if !bytes.Equal(outs[i], args[i]) {
				t.Errorf("round %d: call %d came back as %q", round, i, outs[i])
			}
		}
		e.mu.Lock()
		if free := len(e.argBufs); free != 2 {
			t.Errorf("round %d: %d free copy-in buffers after two calls, want 2", round, free)
		}
		e.mu.Unlock()
	}
}

// TestRefusedECallsLeaveTheFreeListAlone: an ecall that never enters takes no
// buffer and so returns none — the free list neither shrinks nor gains a
// buffer twice — and a giant argument's buffer is dropped, not kept.
func TestRefusedECallsLeaveTheFreeListAlone(t *testing.T) {
	tr := &echoTrusted{}
	_, e := launch(t, tr, nil)
	freeBufs := func() (n int, first *byte) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if len(e.argBufs) > 0 {
			first = &e.argBufs[0][:1][0]
		}
		return len(e.argBufs), first
	}
	if _, err := e.ECall("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	n, buf := freeBufs()
	if n != 1 {
		t.Fatalf("%d free buffers after one call, want 1", n)
	}

	room := []byte("untouched")
	if out, err := e.ECallAppend(room[:0], "nope", []byte("x")); !errors.Is(err, ErrUnknownECall) || len(out) != 0 {
		t.Errorf("unknown entry point = %q, %v", out, err)
	}
	e.Stop()
	if out, err := e.ECallAppend(room[:0], "echo", []byte("x")); !errors.Is(err, ErrStopped) || len(out) != 0 {
		t.Errorf("stopped enclave = %q, %v", out, err)
	}
	if string(room) != "untouched" {
		t.Errorf("a refused ecall wrote into the caller's room: %q", room)
	}
	if n2, buf2 := freeBufs(); n2 != 1 || buf2 != buf {
		t.Errorf("free list after refused ecalls: %d buffers (same one: %v), want the one it had", n2, buf2 == buf)
	}
	// The thread-budget refusal is covered where two calls are inside at once
	// (TestConcurrentECallsHaveTheirOwnBuffers, TestThreadBudget).

	e.Restart()
	if n, _ := freeBufs(); n != 0 {
		t.Errorf("%d copy-in buffers survived a restart", n)
	}
	if _, err := e.ECall("echo", make([]byte, maxKeptArgBuf+1)); err != nil {
		t.Fatal(err)
	}
	if n, _ := freeBufs(); n != 0 {
		t.Errorf("a %d-byte copy-in buffer was kept", maxKeptArgBuf+1)
	}
	if _, err := e.ECall("echo", []byte("small again")); err != nil {
		t.Fatal(err)
	}
	if n, _ := freeBufs(); n != 1 {
		t.Errorf("%d free buffers after a small call, want 1", n)
	}
}

// BenchmarkAllocGate: a crossing copies in both directions and allocates in
// neither when the caller brings room for the result; without room the result
// is the one allocation.
func BenchmarkAllocGate(b *testing.B) {
	p := NewPlatformWithKey([]byte("hw"))
	e, err := p.Launch(Definition{Name: "gate", CodeIdentity: "gate-v1"}, &echoTrusted{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	arg := bytes.Repeat([]byte{1}, 128)
	room := make([]byte, 0, 128)
	testutil.AllocGate(b, "ECallAppendWithRoom", 0, func() {
		if out, err := e.ECallAppend(room, "echo", arg); err != nil || len(out) != len(arg) {
			b.Fatalf("echo = %d bytes, %v", len(out), err)
		}
	})
	testutil.AllocGate(b, "ECall", 1, func() {
		if out, err := e.ECall("echo", arg); err != nil || len(out) != len(arg) {
			b.Fatalf("echo = %d bytes, %v", len(out), err)
		}
	})
}
