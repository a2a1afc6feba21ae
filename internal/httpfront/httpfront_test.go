// These tests are an external package because app.HTTPApp, the page service
// they also drive over HTTP, imports httpfront.
package httpfront_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/httpfront"
)

func get(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n")
}

func post(path, body string) []byte {
	return fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body)
}

func TestExtractRequestComplete(t *testing.T) {
	req := post("/a", "hello")
	got, n, err := httpfront.ExtractRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(req) || !bytes.Equal(got, req) {
		t.Errorf("consumed %d of %d", n, len(req))
	}
}

func TestExtractRequestIncremental(t *testing.T) {
	req := post("/a", "hello world")
	for cut := 0; cut < len(req); cut++ {
		got, n, err := httpfront.ExtractRequest(req[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got != nil || n != 0 {
			t.Fatalf("cut %d: incomplete request extracted", cut)
		}
	}
	got, n, err := httpfront.ExtractRequest(req)
	if err != nil || n != len(req) || got == nil {
		t.Fatalf("full request: %v, n=%d", err, n)
	}
}

func TestExtractRequestPipelined(t *testing.T) {
	buf := append(get("/a"), post("/b", "xy")...)
	first, n, err := httpfront.ExtractRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, get("/a")) {
		t.Errorf("first = %q", first)
	}
	second, n2, err := httpfront.ExtractRequest(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, post("/b", "xy")) || n+n2 != len(buf) {
		t.Errorf("second = %q", second)
	}
}

func TestExtractRequestBadContentLength(t *testing.T) {
	raw := []byte("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
	if _, _, err := httpfront.ExtractRequest(raw); err == nil {
		t.Error("bad Content-Length accepted")
	}
	raw = []byte("GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
	if _, _, err := httpfront.ExtractRequest(raw); err == nil {
		t.Error("negative Content-Length accepted")
	}
}

func TestExtractRequestTooLarge(t *testing.T) {
	for _, length := range []int{httpfront.MaxRequestSize + 1, math.MaxInt} {
		raw := fmt.Appendf(nil, "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n", length)
		if _, _, err := httpfront.ExtractRequest(raw); !errors.Is(err, httpfront.ErrRequestTooLarge) {
			t.Errorf("Content-Length %d: err = %v, want ErrRequestTooLarge", length, err)
		}
	}
}

func TestIsRead(t *testing.T) {
	if !httpfront.IsRead(get("/a")) {
		t.Error("GET not classified as read")
	}
	if httpfront.IsRead(post("/a", "x")) {
		t.Error("POST classified as read")
	}
	if httpfront.IsRead([]byte("junk")) {
		t.Error("garbage classified as read")
	}
}

func newTestApp() *app.HTTPApp {
	return app.NewHTTPAppFactory(map[string][]byte{"/index.html": []byte("<h1>hi</h1>")})().(*app.HTTPApp)
}

func TestAppGet(t *testing.T) {
	a := newTestApp()
	res := string(a.Execute(get("/index.html")))
	if !strings.HasPrefix(res, "HTTP/1.1 200 OK\r\n") {
		t.Errorf("response = %q", res)
	}
	if !strings.HasSuffix(res, "<h1>hi</h1>") {
		t.Errorf("response body missing: %q", res)
	}
	if !strings.Contains(res, "Content-Length: 11\r\n") {
		t.Errorf("content length wrong: %q", res)
	}
}

func TestAppGetMissing(t *testing.T) {
	a := newTestApp()
	res := string(a.Execute(get("/nope")))
	if !strings.HasPrefix(res, "HTTP/1.1 404") {
		t.Errorf("response = %q", res)
	}
}

func TestAppPostThenGet(t *testing.T) {
	a := newTestApp()
	res := string(a.Execute(post("/new", "payload")))
	if !strings.HasPrefix(res, "HTTP/1.1 200") {
		t.Errorf("POST response = %q", res)
	}
	res = string(a.Execute(get("/new")))
	if !strings.HasSuffix(res, "payload") {
		t.Errorf("GET after POST = %q", res)
	}
}

func TestAppHead(t *testing.T) {
	a := newTestApp()
	res := string(a.Execute([]byte("HEAD /index.html HTTP/1.1\r\nHost: x\r\n\r\n")))
	if !strings.HasPrefix(res, "HTTP/1.1 200") {
		t.Errorf("HEAD response = %q", res)
	}
	if strings.HasSuffix(res, "<h1>hi</h1>") {
		t.Error("HEAD response carries a body")
	}
}

func TestAppBadRequests(t *testing.T) {
	a := newTestApp()
	if res := string(a.Execute([]byte("garbage\r\n\r\n"))); !strings.HasPrefix(res, "HTTP/1.1 400") {
		t.Errorf("garbage = %q", res)
	}
	if res := string(a.Execute([]byte("DELETE /x HTTP/1.1\r\n\r\n"))); !strings.HasPrefix(res, "HTTP/1.1 405") {
		t.Errorf("DELETE = %q", res)
	}
}

func TestAppClassificationAndKeys(t *testing.T) {
	a := newTestApp()
	if !a.IsRead(get("/p")) || a.IsRead(post("/p", "x")) {
		t.Error("classification wrong")
	}
	keys := a.Keys(post("/p", "x"))
	if len(keys) != 1 || keys[0] != "page/p" {
		t.Errorf("Keys = %v", keys)
	}
	if a.Keys([]byte("junk")) != nil {
		t.Error("Keys on garbage should be nil")
	}
}

func TestAppDeterminism(t *testing.T) {
	f := app.NewHTTPAppFactory(map[string][]byte{"/p": []byte("v")})
	a, b := f(), f()
	ops := [][]byte{get("/p"), post("/p", "new"), get("/p"), get("/q")}
	for _, op := range ops {
		if !bytes.Equal(a.Execute(op), b.Execute(op)) {
			t.Fatalf("instances diverge on %q", op)
		}
	}
	if app.StateDigest(a) != app.StateDigest(b) {
		t.Error("state digests diverge")
	}
}

func TestAppSnapshotRoundTrip(t *testing.T) {
	a := newTestApp()
	a.Execute(post("/x", "1"))
	snap := a.Snapshot()
	b := app.NewHTTPApp(app.NewPages())
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Execute(get("/x")), b.Execute(get("/x"))) {
		t.Error("restored app differs")
	}
}

func TestAppForkIsIndependent(t *testing.T) {
	a := newTestApp()
	before := a.Snapshot()
	fork := a.Fork()
	a.Execute(post("/index.html", "original only"))
	after := a.Snapshot()
	if !bytes.Equal(fork.Snapshot(), before) {
		t.Error("a POST to the original shows in the fork")
	}
	if res := string(fork.Execute(post("/fork", "fork only"))); !strings.HasPrefix(res, "HTTP/1.1 200") {
		t.Errorf("the fork does not serve HTTP: %q", res)
	}
	if !bytes.Equal(a.Snapshot(), after) {
		t.Error("a POST to the fork shows in the original")
	}
}

// FuzzExtractRequest: the Troxy runs ExtractRequest on whatever a legacy
// client sends, so it never panics, and a request it extracts is a copy of
// the bytes it reports as consumed.
func FuzzExtractRequest(f *testing.F) {
	f.Add(get("/a"))
	f.Add(post("/b", "hello"))
	f.Add([]byte("POST / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n")) // overflows once the head is added
	f.Fuzz(func(t *testing.T, buf []byte) {
		out, consumed, err := httpfront.ExtractRequest(buf)
		if err != nil && (out != nil || consumed != 0) {
			t.Fatalf("error %v with %d bytes consumed", err, consumed)
		}
		if out != nil && !bytes.Equal(out, buf[:consumed]) {
			t.Fatalf("extracted %q, consumed %q", out, buf[:consumed])
		}
	})
}

func TestQuickPostRoundTrip(t *testing.T) {
	a := newTestApp()
	f := func(body []byte) bool {
		a.Execute(post("/q", string(body)))
		res := a.Execute(get("/q"))
		return bytes.HasSuffix(res, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
