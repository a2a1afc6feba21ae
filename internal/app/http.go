package app

import (
	"bytes"
	"fmt"

	"github.com/troxy-bft/troxy/internal/httpfront"
)

// HTTPApp adapts the replicated page store to raw HTTP/1.1 operations:
// Execute parses a full request, applies GET/POST to the store, and renders
// a complete HTTP response. Requests are classified read/write by their
// method.
type HTTPApp struct {
	pages *Pages
}

// NewHTTPApp creates an HTTP application over an existing page store.
func NewHTTPApp(pages *Pages) *HTTPApp { return &HTTPApp{pages: pages} }

// NewHTTPAppFactory returns a factory producing HTTP applications over page
// stores pre-populated with initial.
func NewHTTPAppFactory(initial map[string][]byte) Factory {
	inner := NewPagesFactory(initial)
	return func() Application { return NewHTTPApp(inner().(*Pages)) }
}

var _ Application = (*HTTPApp)(nil)
var _ Forker = (*HTTPApp)(nil)

// Execute implements Application: it serves one raw HTTP request.
func (a *HTTPApp) Execute(op []byte) []byte {
	method, path, _, body, err := httpfront.ParseRequest(op)
	if err != nil {
		return renderResponse(400, "Bad Request", []byte("malformed request\n"))
	}
	switch method {
	case "GET", "HEAD":
		res := a.pages.Execute(PageGet(path))
		if len(res) == 0 || res[0] != PageOK {
			return renderResponse(404, "Not Found", []byte("no such page\n"))
		}
		content := res[1:]
		if method == "HEAD" {
			content = nil
		}
		return renderResponse(200, "OK", content)
	case "POST", "PUT":
		res := a.pages.Execute(PagePost(path, body))
		if len(res) == 0 || res[0] != PageOK {
			return renderResponse(500, "Internal Server Error", nil)
		}
		return renderResponse(200, "OK", res[1:])
	default:
		return renderResponse(405, "Method Not Allowed", nil)
	}
}

func renderResponse(code int, reason string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", code, reason)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	b.WriteString("Content-Type: text/html\r\n")
	b.WriteString("Connection: keep-alive\r\n")
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// IsRead implements Application.
func (a *HTTPApp) IsRead(op []byte) bool { return httpfront.IsRead(op) }

// Keys implements Application.
func (a *HTTPApp) Keys(op []byte) []string {
	_, path, _, _, err := httpfront.ParseRequest(op)
	if err != nil {
		return nil
	}
	return a.pages.Keys(PageGet(path))
}

// Snapshot implements Application.
func (a *HTTPApp) Snapshot() []byte { return a.pages.Snapshot() }

// Restore implements Application.
func (a *HTTPApp) Restore(snapshot []byte) error { return a.pages.Restore(snapshot) }

// Fork implements Forker.
func (a *HTTPApp) Fork() Application { return NewHTTPApp(a.pages.Fork().(*Pages)) }
