// Package httpfront makes the replicated system speak HTTP/1.1 to legacy
// clients, in the two places the paper requires (Sections III-E and VI-D):
//
//   - ExtractRequest finds message boundaries in a byte stream. This is the
//     only HTTP knowledge the Troxy needs: it does not parse or understand
//     requests, it only delimits them so each complete request becomes the
//     payload of one BFT request ("it is sufficient for the Troxy to
//     identify request boundaries").
//   - IsRead classifies a request as read or write by its method, and
//     ParseRequest splits a complete request for the service that executes
//     it (internal/app's HTTP page service).
//
// The package imports only the standard library: it is compiled into the
// enclave image, and the application behind it is not.
package httpfront

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
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
	// Bounded before the sum: a Content-Length near the int maximum would
	// overflow it and reach make as a negative length.
	if contentLength > MaxRequestSize-bodyStart {
		return nil, 0, ErrRequestTooLarge
	}
	total := bodyStart + contentLength
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
	method, _, _, _, err := ParseRequest(rawRequest)
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
	_, _, headers, _, err := ParseRequest(rawRequest)
	if err != nil {
		return false
	}
	return strings.EqualFold(headers[strings.ToLower(ConsistencyHeader)], "fast")
}

// ParseRequest splits a complete raw request into its method, path, headers
// (names lower-cased) and body.
func ParseRequest(raw []byte) (method, path string, headers map[string]string, body []byte, err error) {
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
