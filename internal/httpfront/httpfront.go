// Package httpfront makes the replicated system speak HTTP/1.1 to legacy
// clients, in the two places the paper requires (Sections III-E and VI-D):
//
//   - ExtractRequest finds message boundaries in a byte stream. This is the
//     only HTTP knowledge the Troxy needs: it does not parse or understand
//     requests, it only delimits them so each complete request becomes the
//     payload of one BFT request ("it is sufficient for the Troxy to
//     identify request boundaries").
//   - App adapts the replicated page store (internal/app.Pages) to raw
//     HTTP/1.1 operations: Execute parses a full request, applies GET/POST
//     to the store, and renders a complete HTTP response. Requests are
//     classified read/write by their method.
package httpfront

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/troxy-bft/troxy/internal/app"
)

// MaxRequestSize bounds a single HTTP request (head plus body).
const MaxRequestSize = 8 << 20

// ErrRequestTooLarge reports a request exceeding MaxRequestSize.
var ErrRequestTooLarge = errors.New("httpfront: request too large")

// ErrMalformed reports an unparseable request head.
var ErrMalformed = errors.New("httpfront: malformed request")

// ExtractRequest scans buf for one complete HTTP/1.1 request. It returns the
// request bytes and the number of bytes consumed. If the buffer does not yet
// hold a complete request it returns (nil, 0, nil); the caller buffers more
// input. Requests use Content-Length framing (chunked uploads are not
// supported by the page service).
func ExtractRequest(buf []byte) (req []byte, consumed int, err error) {
	headEnd := bytes.Index(buf, []byte("\r\n\r\n"))
	if headEnd < 0 {
		if len(buf) > MaxRequestSize {
			return nil, 0, ErrRequestTooLarge
		}
		return nil, 0, nil
	}
	head := buf[:headEnd]
	bodyStart := headEnd + 4

	contentLength := 0
	for _, line := range bytes.Split(head, []byte("\r\n"))[1:] {
		name, value, found := bytes.Cut(line, []byte(":"))
		if !found {
			continue
		}
		if strings.EqualFold(string(bytes.TrimSpace(name)), "Content-Length") {
			n, err := strconv.Atoi(string(bytes.TrimSpace(value)))
			if err != nil || n < 0 {
				return nil, 0, fmt.Errorf("%w: bad Content-Length", ErrMalformed)
			}
			contentLength = n
		}
	}
	total := bodyStart + contentLength
	if total > MaxRequestSize {
		return nil, 0, ErrRequestTooLarge
	}
	if len(buf) < total {
		return nil, 0, nil
	}
	out := make([]byte, total)
	copy(out, buf[:total])
	return out, total, nil
}

// ExtractResponse scans buf for one complete HTTP/1.1 response (legacy
// clients use it to delimit replies on the byte stream). Responses use
// Content-Length framing; it returns (nil, 0, nil) while incomplete.
func ExtractResponse(buf []byte) (resp []byte, consumed int, err error) {
	// Responses and requests share Content-Length framing; the head differs
	// only in its first line, which ExtractRequest does not interpret.
	return ExtractRequest(buf)
}

// IsRead classifies a raw HTTP request as read-only by its method. This is
// the service-specific classifier handed to the Troxy.
func IsRead(rawRequest []byte) bool {
	method, _, _, _, err := parseRequest(rawRequest)
	if err != nil {
		return false
	}
	return method == "GET" || method == "HEAD"
}

// ConsistencyHeader is the per-request commit-level selector for HTTP
// clients. A request carrying "X-Troxy-Consistency: fast" opts into the
// crash-tolerant tier (answered at PREPARE time, f+1 counter-certified
// speculative votes); any other value — or no header — keeps the durable
// Byzantine tier. Note that plain HTTP cannot express a retraction: a fast
// HTTP client that loses its speculation receives no repair response, which
// is exactly the weaker guarantee the header opts into.
const ConsistencyHeader = "X-Troxy-Consistency"

// FastCommit reports whether a raw HTTP request opts into the crash-tolerant
// commit tier via the X-Troxy-Consistency header.
func FastCommit(rawRequest []byte) bool {
	_, _, headers, _, err := parseRequest(rawRequest)
	if err != nil {
		return false
	}
	return strings.EqualFold(headers[strings.ToLower(ConsistencyHeader)], "fast")
}

// parseRequest splits a raw request into method, path, headers and body.
func parseRequest(raw []byte) (method, path string, headers map[string]string, body []byte, err error) {
	headEnd := bytes.Index(raw, []byte("\r\n\r\n"))
	if headEnd < 0 {
		return "", "", nil, nil, ErrMalformed
	}
	lines := strings.Split(string(raw[:headEnd]), "\r\n")
	parts := strings.Split(lines[0], " ")
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return "", "", nil, nil, fmt.Errorf("%w: request line %q", ErrMalformed, lines[0])
	}
	method, path = parts[0], parts[1]
	headers = make(map[string]string, len(lines)-1)
	for _, line := range lines[1:] {
		name, value, found := strings.Cut(line, ":")
		if !found {
			continue
		}
		headers[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	return method, path, headers, raw[headEnd+4:], nil
}

// App adapts the replicated page store to raw HTTP/1.1 operations.
type App struct {
	pages *app.Pages
}

// NewApp creates an HTTP application over an existing page store.
func NewApp(pages *app.Pages) *App { return &App{pages: pages} }

// NewAppFactory returns a factory producing HTTP applications over page
// stores pre-populated with initial.
func NewAppFactory(initial map[string][]byte) app.Factory {
	inner := app.NewPagesFactory(initial)
	return func() app.Application { return NewApp(inner().(*app.Pages)) }
}

var _ app.Application = (*App)(nil)
var _ app.Forker = (*App)(nil)

// Execute implements app.Application: it serves one raw HTTP request.
func (a *App) Execute(op []byte) []byte {
	method, path, _, body, err := parseRequest(op)
	if err != nil {
		return renderResponse(400, "Bad Request", []byte("malformed request\n"))
	}
	switch method {
	case "GET", "HEAD":
		res := a.pages.Execute(app.PageGet(path))
		if len(res) == 0 || res[0] != app.PageOK {
			return renderResponse(404, "Not Found", []byte("no such page\n"))
		}
		content := res[1:]
		if method == "HEAD" {
			content = nil
		}
		return renderResponse(200, "OK", content)
	case "POST", "PUT":
		res := a.pages.Execute(app.PagePost(path, body))
		if len(res) == 0 || res[0] != app.PageOK {
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

// IsRead implements app.Application.
func (a *App) IsRead(op []byte) bool { return IsRead(op) }

// Keys implements app.Application.
func (a *App) Keys(op []byte) []string {
	_, path, _, _, err := parseRequest(op)
	if err != nil {
		return nil
	}
	return a.pages.Keys(app.PageGet(path))
}

// Snapshot implements app.Application.
func (a *App) Snapshot() []byte { return a.pages.Snapshot() }

// Restore implements app.Application.
func (a *App) Restore(snapshot []byte) error { return a.pages.Restore(snapshot) }

// Fork implements app.Forker.
func (a *App) Fork() app.Application { return NewApp(a.pages.Fork().(*app.Pages)) }
